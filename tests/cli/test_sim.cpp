#include "cli/sim_options.hpp"
#include "cli/sim_run.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace selfstab::cli {
namespace {

TEST(ParseSimOptions, Defaults) {
  const SimOptions o = parseSimOptions({});
  EXPECT_EQ(o.protocol, SimProtocolKind::Smm);
  EXPECT_EQ(o.nodes, 25u);
  EXPECT_DOUBLE_EQ(o.radius, 0.35);
  EXPECT_EQ(o.beaconInterval, 100 * adhoc::kMillisecond);
  EXPECT_DOUBLE_EQ(o.lossProbability, 0.0);
  EXPECT_EQ(o.collisionWindow, 0);
  EXPECT_EQ(o.schedule, engine::Schedule::Dense);
  EXPECT_EQ(o.mobility, MobilityKind::Static);
  EXPECT_TRUE(o.untilQuiet);
  EXPECT_FALSE(o.help);
}

TEST(ParseSimOptions, AllFlags) {
  const SimOptions o = parseSimOptions(
      {"-p", "sis", "-n", "40", "--radius", "0.5", "--seed", "9",
       "--beacon-ms", "50", "--loss", "0.2", "--collision-us", "500",
       "--timeout-factor", "4", "--mobility", "waypoint", "--speed",
       "0.02:0.06", "--stop-sec", "30", "--duration-sec", "90",
       "--report-sec", "5", "--no-early-stop"});
  EXPECT_EQ(o.protocol, SimProtocolKind::Sis);
  EXPECT_EQ(o.nodes, 40u);
  EXPECT_DOUBLE_EQ(o.radius, 0.5);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.beaconInterval, 50 * adhoc::kMillisecond);
  EXPECT_DOUBLE_EQ(o.lossProbability, 0.2);
  EXPECT_EQ(o.collisionWindow, 500);
  EXPECT_DOUBLE_EQ(o.timeoutFactor, 4.0);
  EXPECT_EQ(o.mobility, MobilityKind::Waypoint);
  EXPECT_DOUBLE_EQ(o.speedMin, 0.02);
  EXPECT_DOUBLE_EQ(o.speedMax, 0.06);
  EXPECT_EQ(o.stopTime, 30 * adhoc::kSecond);
  EXPECT_EQ(o.duration, 90 * adhoc::kSecond);
  EXPECT_EQ(o.reportEvery, 5 * adhoc::kSecond);
  EXPECT_FALSE(o.untilQuiet);
}

TEST(ParseSimOptions, Schedule) {
  EXPECT_EQ(parseSimOptions({"--schedule", "active"}).schedule,
            engine::Schedule::Active);
  EXPECT_EQ(parseSimOptions({"--schedule", "dense"}).schedule,
            engine::Schedule::Dense);
  EXPECT_THROW((void)parseSimOptions({"--schedule", "eager"}), CliError);
}

TEST(ParseSimOptions, IndexAndQueueModes) {
  EXPECT_EQ(parseSimOptions({}).index, adhoc::IndexMode::Grid);
  EXPECT_EQ(parseSimOptions({}).queue, adhoc::QueueMode::Calendar);
  EXPECT_EQ(parseSimOptions({"--index", "scan"}).index, adhoc::IndexMode::Scan);
  EXPECT_EQ(parseSimOptions({"--index", "grid"}).index, adhoc::IndexMode::Grid);
  EXPECT_EQ(parseSimOptions({"--queue", "heap"}).queue, adhoc::QueueMode::Heap);
  EXPECT_EQ(parseSimOptions({"--queue", "calendar"}).queue,
            adhoc::QueueMode::Calendar);
  EXPECT_THROW((void)parseSimOptions({"--index", "tree"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--queue", "list"}), CliError);
}

TEST(ExecuteSim, ReferenceModesMatchFastModes) {
  SimOptions fast;
  fast.nodes = 15;
  fast.seed = 3;
  fast.duration = 120 * adhoc::kSecond;
  fast.collisionWindow = 2000;
  fast.mobility = MobilityKind::Waypoint;
  fast.stopTime = 30 * adhoc::kSecond;
  SimOptions reference = fast;
  reference.index = adhoc::IndexMode::Scan;
  reference.queue = adhoc::QueueMode::Heap;

  std::ostringstream fastOut;
  std::ostringstream referenceOut;
  const SimReport fastReport = executeSim(fast, fastOut);
  const SimReport referenceReport = executeSim(reference, referenceOut);

  // Identical trajectories: every stat and the rendered timeline agree.
  EXPECT_EQ(fastReport.summary, referenceReport.summary);
  EXPECT_EQ(fastReport.endTime, referenceReport.endTime);
  EXPECT_EQ(fastReport.beaconsSent, referenceReport.beaconsSent);
  EXPECT_EQ(fastReport.beaconsDelivered, referenceReport.beaconsDelivered);
  EXPECT_EQ(fastReport.beaconsLost, referenceReport.beaconsLost);
  EXPECT_EQ(fastReport.beaconsCollided, referenceReport.beaconsCollided);
  EXPECT_EQ(fastReport.moves, referenceReport.moves);
  EXPECT_EQ(fastOut.str(), referenceOut.str());
}

TEST(ParseSimOptions, Kernel) {
  EXPECT_EQ(parseSimOptions({}).kernel, engine::KernelMode::Auto);
  EXPECT_EQ(parseSimOptions({"--kernel", "auto"}).kernel,
            engine::KernelMode::Auto);
  EXPECT_EQ(parseSimOptions({"--kernel", "generic"}).kernel,
            engine::KernelMode::Generic);
  EXPECT_EQ(parseSimOptions({"--kernel", "flat"}).kernel,
            engine::KernelMode::Flat);
  EXPECT_THROW(parseSimOptions({"--kernel", "simd"}), CliError);
  EXPECT_THROW(parseSimOptions({"--kernel"}), CliError);  // missing value
}

TEST(ExecuteSim, KernelFlatMatchesGenericAndReportsPath) {
  // Same deployment and seed: the view kernel promises bit-identical
  // decisions, so every deterministic report field must match the generic
  // path exactly.
  for (const SimProtocolKind kind :
       {SimProtocolKind::Smm, SimProtocolKind::Sis}) {
    SimOptions generic;
    generic.protocol = kind;
    generic.nodes = 15;
    generic.seed = 3;
    generic.duration = 120 * adhoc::kSecond;
    generic.kernel = engine::KernelMode::Generic;
    SimOptions flat = generic;
    flat.kernel = engine::KernelMode::Flat;

    std::ostringstream genericOut;
    std::ostringstream flatOut;
    const SimReport g = executeSim(generic, genericOut);
    const SimReport f = executeSim(flat, flatOut);
    EXPECT_EQ(g.kernel, "generic");
    EXPECT_EQ(f.kernel, "flat");
    EXPECT_EQ(f.moves, g.moves);
    EXPECT_EQ(f.rounds, g.rounds);
    EXPECT_EQ(f.ruleEvaluations, g.ruleEvaluations);
    EXPECT_EQ(f.beaconsSent, g.beaconsSent);
    EXPECT_EQ(f.summary, g.summary);
    EXPECT_EQ(flatOut.str(), genericOut.str());
  }
}

TEST(ExecuteSim, KernelAutoFallsBackForLeaderTree) {
  SimOptions options;
  options.protocol = SimProtocolKind::LeaderTree;
  options.nodes = 10;
  options.duration = 120 * adhoc::kSecond;
  std::ostringstream out;
  EXPECT_EQ(executeSim(options, out).kernel, "generic");

  options.kernel = engine::KernelMode::Flat;
  std::ostringstream out2;
  EXPECT_THROW(executeSim(options, out2), CliError);
}

TEST(ParseSimOptions, Rejections) {
  EXPECT_THROW((void)parseSimOptions({"-p", "bogus"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"-n", "0"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--loss", "1.5"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--radius", "-1"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--speed", "0.05"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--speed", "0.06:0.02"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--whatever"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--duration-sec"}), CliError);
}

TEST(ParseSimOptions, HelpAndNames) {
  EXPECT_TRUE(parseSimOptions({"-h"}).help);
  EXPECT_FALSE(simUsage().empty());
  EXPECT_EQ(toString(SimProtocolKind::Smm), "smm");
  EXPECT_EQ(toString(SimProtocolKind::Sis), "sis");
  EXPECT_EQ(toString(SimProtocolKind::LeaderTree), "leadertree");
}

TEST(ExecuteSim, SmmStaticDeploymentVerifies) {
  SimOptions options;
  options.nodes = 15;
  options.seed = 3;
  options.duration = 120 * adhoc::kSecond;
  std::ostringstream out;
  const SimReport report = executeSim(options, out);
  EXPECT_TRUE(report.quiet);
  EXPECT_TRUE(report.predicateOk);
  EXPECT_GT(report.beaconsSent, 0u);
  EXPECT_NE(report.summary.find("matching"), std::string::npos);
  EXPECT_NE(out.str().find("time(s)"), std::string::npos);
}

TEST(ExecuteSim, ActiveScheduleSkipsEvaluationsAndStillVerifies) {
  SimOptions dense;
  dense.nodes = 15;
  dense.seed = 3;
  dense.duration = 120 * adhoc::kSecond;
  SimOptions active = dense;
  active.schedule = engine::Schedule::Active;

  std::ostringstream denseOut;
  std::ostringstream activeOut;
  const SimReport denseReport = executeSim(dense, denseOut);
  const SimReport activeReport = executeSim(active, activeOut);

  EXPECT_TRUE(activeReport.quiet);
  EXPECT_TRUE(activeReport.predicateOk);
  // Same deployment, same seed: the protocol outcome is unaffected by the
  // schedule, but the quiescent tail of the run stops evaluating rules.
  EXPECT_EQ(activeReport.summary, denseReport.summary);
  EXPECT_EQ(denseReport.evaluationsSkipped, 0u);
  EXPECT_GT(activeReport.evaluationsSkipped, 0u);
  EXPECT_LT(activeReport.ruleEvaluations, denseReport.ruleEvaluations);
}

TEST(ExecuteSim, SisWithLossVerifies) {
  SimOptions options;
  options.protocol = SimProtocolKind::Sis;
  options.nodes = 15;
  options.seed = 5;
  options.lossProbability = 0.1;
  options.duration = 240 * adhoc::kSecond;
  std::ostringstream out;
  const SimReport report = executeSim(options, out);
  EXPECT_TRUE(report.quiet);
  EXPECT_TRUE(report.predicateOk);
  EXPECT_GT(report.beaconsLost, 0u);
}

TEST(ExecuteSim, LeaderTreeWithWaypointFreezeVerifies) {
  SimOptions options;
  options.protocol = SimProtocolKind::LeaderTree;
  options.nodes = 12;
  options.seed = 7;
  options.radius = 0.5;
  options.mobility = MobilityKind::Waypoint;
  options.stopTime = 20 * adhoc::kSecond;
  options.duration = 300 * adhoc::kSecond;
  options.reportEvery = 20 * adhoc::kSecond;
  std::ostringstream out;
  const SimReport report = executeSim(options, out);
  EXPECT_TRUE(report.quiet);
  EXPECT_TRUE(report.predicateOk);
  EXPECT_NE(report.summary.find("leader"), std::string::npos);
}

TEST(ExecuteSim, NoEarlyStopRunsFullDuration) {
  SimOptions options;
  options.nodes = 8;
  options.seed = 11;
  options.untilQuiet = false;
  options.duration = 30 * adhoc::kSecond;
  options.reportEvery = 10 * adhoc::kSecond;
  std::ostringstream out;
  const SimReport report = executeSim(options, out);
  EXPECT_GE(report.endTime, 30 * adhoc::kSecond - adhoc::kSecond);
  EXPECT_TRUE(report.predicateOk);
}

TEST(ParseSimOptions, TelemetryFlags) {
  const SimOptions o = parseSimOptions(
      {"--json", "--metrics", "m.prom", "--events", "e.jsonl"});
  EXPECT_TRUE(o.json);
  EXPECT_EQ(o.metricsPath, "m.prom");
  EXPECT_EQ(o.eventsPath, "e.jsonl");
  EXPECT_FALSE(parseSimOptions({}).json);
  EXPECT_THROW((void)parseSimOptions({"--metrics"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--events"}), CliError);
}

TEST(ExecuteSim, MetricsDumpMatchesReportExactly) {
  SimOptions options;
  options.nodes = 15;
  options.seed = 3;
  options.duration = 120 * adhoc::kSecond;
  options.metricsPath = "-";
  options.json = true;  // suppress the human timeline
  std::ostringstream out;
  const SimReport report = executeSim(options, out);
  const std::string text = out.str();

  const auto expectCounter = [&](const std::string& name, std::size_t v) {
    // JSON form…
    EXPECT_NE(text.find('"' + name + "\":" + std::to_string(v)),
              std::string::npos)
        << name << " = " << v;
    // …and Prometheus form, from the same registry.
    EXPECT_NE(text.find(name + ' ' + std::to_string(v) + '\n'),
              std::string::npos)
        << name << " = " << v;
  };
  expectCounter("beacons_sent_total", report.beaconsSent);
  expectCounter("beacons_delivered_total", report.beaconsDelivered);
  expectCounter("beacons_lost_total", report.beaconsLost);
  expectCounter("beacons_collided_total", report.beaconsCollided);
  expectCounter("moves_total", report.moves);
  expectCounter("rounds_total", report.rounds);
  EXPECT_GT(report.rounds, 0u);
  EXPECT_NE(text.find("# TYPE round_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("round_duration_seconds_count"), std::string::npos);
}

// The window executor's instruments: phased windows, windows handed to the
// per-event loop (the early-stop run's quiet test needs one), the worker
// gauge and the phase split.
TEST(ExecuteSim, MetricsCountWindowsAndSplitPhases) {
  const auto counter = [](const std::string& text, const std::string& name) {
    const std::size_t at = text.find('"' + name + "\":");
    EXPECT_NE(at, std::string::npos) << name;
    return at == std::string::npos
               ? 0UL
               : std::stoul(text.substr(at + name.size() + 3));
  };
  SimOptions options;
  options.nodes = 15;
  options.seed = 3;
  options.duration = 120 * adhoc::kSecond;
  options.metricsPath = "-";
  options.json = true;
  std::ostringstream quiet;
  const SimReport report = executeSim(options, quiet);
  ASSERT_TRUE(report.quiet);
  EXPECT_GT(counter(quiet.str(), "sim_windows_total"), 0UL);
  EXPECT_GE(counter(quiet.str(), "sim_event_loop_windows_total"), 1UL);
  for (const char* gauge : {"worker_threads", "sim_geometry_seconds",
                            "sim_node_seconds", "sim_serial_seconds"}) {
    EXPECT_NE(quiet.str().find(std::string("# TYPE ") + gauge + " gauge"),
              std::string::npos)
        << gauge;
  }

  options.untilQuiet = false;
  std::ostringstream full;
  (void)executeSim(options, full);
  // Only windows holding an event count: ~300 events per second here.
  EXPECT_GT(counter(full.str(), "sim_windows_total"), 1000UL);
  EXPECT_EQ(counter(full.str(), "sim_event_loop_windows_total"), 0UL);
}

TEST(ExecuteSim, EventsStreamIsJsonl) {
  SimOptions options;
  options.nodes = 10;
  options.seed = 13;
  options.duration = 60 * adhoc::kSecond;
  options.eventsPath = "-";
  options.json = true;
  std::ostringstream out;
  const SimReport report = executeSim(options, out);
  EXPECT_GT(report.moves, 0u);
  // One "move" record per state change.
  const std::string text = out.str();
  std::size_t moveLines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"type\":\"move\",", 0) == 0) ++moveLines;
  }
  EXPECT_EQ(moveLines, report.moves);
}

TEST(PrintSimReportJson, EmitsOneParsableObject) {
  SimReport report;
  report.protocol = "smm";
  report.kernel = "flat";
  report.nodes = 25;
  report.endTime = 7 * adhoc::kSecond;
  report.rounds = 70;
  report.quiet = true;
  report.predicateOk = true;
  report.beaconsSent = 1750;
  report.beaconsDelivered = 6902;
  report.moves = 31;
  report.ruleEvaluations = 1740;
  report.evaluationsSkipped = 10;
  report.rangeChecks = 42000;
  report.summary = "matching: 12 pair(s)";
  std::ostringstream out;
  printSimReportJson(report, out);
  const std::string json = out.str();
  EXPECT_EQ(json,
            "{\"protocol\":\"smm\",\"kernel\":\"flat\",\"nodes\":25,"
            "\"endTimeUs\":7000000,"
            "\"rounds\":70,\"quiet\":true,\"predicateOk\":true,"
            "\"beaconsSent\":1750,\"beaconsDelivered\":6902,"
            "\"beaconsLost\":0,\"beaconsCollided\":0,\"moves\":31,"
            "\"ruleEvaluations\":1740,\"evaluationsSkipped\":10,"
            "\"rangeChecks\":42000,"
            "\"summary\":\"matching: 12 pair(s)\"}\n");
}

TEST(PrintSimReport, RendersCounters) {
  SimReport report;
  report.protocol = "sis";
  report.nodes = 10;
  report.endTime = 12 * adhoc::kSecond;
  report.quiet = true;
  report.predicateOk = true;
  report.beaconsSent = 1200;
  report.beaconsDelivered = 5000;
  report.beaconsLost = 17;
  report.beaconsCollided = 3;
  report.moves = 42;
  report.summary = "independent set: 4 member(s)";
  std::ostringstream out;
  printSimReport(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("1200 sent"), std::string::npos);
  EXPECT_NE(text.find("17 lost"), std::string::npos);
  EXPECT_NE(text.find("3 collided"), std::string::npos);
  EXPECT_NE(text.find("verified    : yes"), std::string::npos);
}

}  // namespace
}  // namespace selfstab::cli
