// Input validation: NetworkConfig::validate and the CLI flags that feed it.
// Bad physical parameters must fail fast with a clear message, not produce
// a silently degenerate simulation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "adhoc/network.hpp"
#include "cli/options.hpp"
#include "cli/run.hpp"
#include "cli/sim_options.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"

namespace selfstab {
namespace {

TEST(NetworkConfigValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(adhoc::NetworkConfig{}.validate());
}

TEST(NetworkConfigValidate, RejectsOutOfRangeParameters) {
  const auto rejects = [](auto mutate) {
    adhoc::NetworkConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  rejects([](auto& c) { c.beaconInterval = 0; });
  rejects([](auto& c) { c.beaconInterval = -5; });
  rejects([](auto& c) { c.lossProbability = -0.1; });
  rejects([](auto& c) { c.lossProbability = 1.5; });
  rejects([](auto& c) {
    c.lossProbability = std::numeric_limits<double>::quiet_NaN();
  });
  rejects([](auto& c) { c.collisionWindow = -1; });
  rejects([](auto& c) { c.timeoutFactor = 0.0; });
  rejects([](auto& c) { c.timeoutFactor = -2.0; });
  rejects([](auto& c) { c.jitterFraction = -0.01; });
  rejects([](auto& c) { c.jitterFraction = 1.0; });
  rejects([](auto& c) { c.propagationDelay = -1; });
  rejects([](auto& c) { c.radius = 0.0; });
  rejects([](auto& c) { c.perNodeRadius = {0.3, 0.0, 0.2}; });
}

TEST(NetworkConfigValidate, MessagesNameTheField) {
  adhoc::NetworkConfig config;
  config.lossProbability = 2.0;
  try {
    config.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lossProbability"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkConfigValidate, SimulatorConstructorEnforcesIt) {
  graph::Rng rng(7);
  std::vector<graph::Point> pts;
  graph::connectedRandomGeometric(5, 0.4, rng, &pts);
  adhoc::StaticPlacement mobility(std::move(pts));
  const auto ids = graph::IdAssignment::identity(5);
  const core::SmmProtocol smm = core::smmPaper();

  adhoc::NetworkConfig bad;
  bad.beaconInterval = 0;
  EXPECT_THROW(adhoc::NetworkSimulator<core::PointerState>(smm, ids, mobility,
                                                           bad),
               std::invalid_argument);

  // perNodeRadius must match the node count — checked at construction,
  // where the node count is first known.
  adhoc::NetworkConfig mismatched;
  mismatched.perNodeRadius = {0.3, 0.3};
  EXPECT_THROW(adhoc::NetworkSimulator<core::PointerState>(smm, ids, mobility,
                                                           mismatched),
               std::invalid_argument);
}

TEST(SimOptionsValidation, RejectsDegeneratePhysics) {
  using cli::CliError;
  using cli::parseSimOptions;
  EXPECT_THROW((void)parseSimOptions({"--loss", "1.5"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--loss", "-0.2"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--loss", "nan"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--beacon-ms", "0"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--collision-us", "-5"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--timeout-factor", "0"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--radius", "0"}), CliError);
  EXPECT_THROW((void)parseSimOptions({"--nodes", "0"}), CliError);
}

// Simulated time is whole microseconds in an int64: a value that truncates
// to 0 us (a report step that never advances) or overflows the range must
// fail at parse time, not hang or wrap.
TEST(SimOptionsValidation, TimeFlagsStayInSimTimeRange) {
  using cli::CliError;
  using cli::parseSimOptions;
  for (const char* flag : {"--report-sec", "--duration-sec", "--stop-sec"}) {
    EXPECT_THROW((void)parseSimOptions({flag, "1e-7"}), CliError) << flag;
    EXPECT_THROW((void)parseSimOptions({flag, "9.9e-7"}), CliError) << flag;
    EXPECT_THROW((void)parseSimOptions({flag, "1e300"}), CliError) << flag;
    EXPECT_THROW((void)parseSimOptions({flag, "1e13"}), CliError) << flag;
    EXPECT_THROW((void)parseSimOptions({flag, "inf"}), CliError) << flag;
  }
  EXPECT_EQ(parseSimOptions({"--report-sec", "1e-6"}).reportEvery, 1);
  EXPECT_EQ(parseSimOptions({"--duration-sec", "9e12"}).duration,
            static_cast<adhoc::SimTime>(9e12 * 1e6));
  try {
    (void)parseSimOptions({"--report-sec", "1e-7"});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("report-sec"), std::string::npos)
        << e.what();
  }
}

TEST(ChaosFlag, ParsedOnBothClis) {
  EXPECT_EQ(cli::parseSimOptions({"--chaos", "churn:7"}).chaosSpec,
            "churn:7");
  EXPECT_EQ(cli::parseOptions({"--chaos", "plan.json"}).chaosSpec,
            "plan.json");
  EXPECT_TRUE(cli::parseSimOptions({}).chaosSpec.empty());
  EXPECT_THROW((void)cli::parseSimOptions({"--chaos"}), cli::CliError);
  EXPECT_THROW((void)cli::parseOptions({"--chaos", ""}), cli::CliError);
}

// Edge-list headers whose vertex count cannot be a graph used to escape as
// std::length_error ("-1" wraps to 2^64-1) or std::bad_alloc (> 2^32, or
// just under it: 2^32-2 vertices would need ~275 GB).
TEST(GraphFileValidation, OutOfRangeVertexCountIsABadGraphFile) {
  const std::string path = ::testing::TempDir() + "/cli_bad_header.txt";
  for (const char* text :
       {"-1 0\n", "4294967297 1\n0 1\n", "4294967294 0\n"}) {
    {
      std::ofstream out(path);
      out << text;
    }
    cli::GraphSpec spec;
    spec.kind = cli::GraphSpec::Kind::File;
    spec.path = path;
    try {
      (void)cli::buildGraph(spec, 1);
      ADD_FAILURE() << "expected CliError for header " << text;
    } catch (const cli::CliError& e) {
      EXPECT_NE(std::string(e.what()).find("bad graph file"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

// The header is held to the same physical-memory budget as generated
// specs, before the vertex array is allocated.
TEST(GraphFileValidation, HeaderIsCheckedAgainstMemory) {
  try {
    cli::checkGraphFileHeader("big.txt", 4294967294ULL, 0, 16e9);
    ADD_FAILURE() << "expected CliError";
  } catch (const cli::CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad graph file 'big.txt'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("4294967294 vertices"), std::string::npos) << what;
  }
  EXPECT_THROW(cli::checkGraphFileHeader("f", 1000, 5000000000ULL, 16e9),
               cli::CliError);
  EXPECT_NO_THROW(cli::checkGraphFileHeader("f", 1000000, 14000000, 4e9));
}

TEST(GraphSizeCheck, EstimatesMatchGenerators) {
  for (const char* text : {"path:10", "cycle:10", "star:7", "tree:20",
                           "grid:3x4", "complete:9"}) {
    const cli::GraphSpec spec = cli::parseGraphSpec(text);
    EXPECT_EQ(cli::estimateEdges(spec),
              static_cast<double>(cli::buildGraph(spec, 1).size()))
        << text;
  }
  // Expectations: within 10% for densities that need no connecting splice.
  for (const char* text : {"gnp:400:0.05", "udg:2000:0.05"}) {
    const cli::GraphSpec spec = cli::parseGraphSpec(text);
    const auto actual = static_cast<double>(cli::buildGraph(spec, 1).size());
    EXPECT_NEAR(cli::estimateEdges(spec), actual, 0.1 * actual) << text;
  }
  EXPECT_NEAR(cli::estimateEdges(cli::parseGraphSpec("udg:1000000:0.003")),
              1.414e7, 0.01e7);
}

// Oversized specs fail before generating anything, naming the estimate:
// complete:100000 would be ~5e9 edges, path:5000000000 exceeds 32-bit
// vertex indices.
TEST(GraphSizeCheck, RejectsOversizedSpecsFast) {
  const auto rejectsFast = [](const char* text, const char* needle) {
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)cli::buildGraph(cli::parseGraphSpec(text), 1);
      ADD_FAILURE() << "expected CliError for " << text;
    } catch (const cli::CliError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              1.0)
        << text;
  };
  rejectsFast("complete:100000", "4999950000 edges");
  rejectsFast("path:5000000000", "5000000000 vertices");
  rejectsFast("grid:70000x70000", "4900000000 vertices");
  EXPECT_THROW(cli::checkGraphSize(cli::parseGraphSpec("complete:100000"),
                                   1e11),
               cli::CliError);
  EXPECT_NO_THROW(
      cli::checkGraphSize(cli::parseGraphSpec("complete:1000"), 1e9));
}

// The benchmark workloads' graphs (selfstab's two udg specs and a graph the
// size of the simulator's) fit in a modest 4 GB machine.
TEST(GraphSizeCheck, BenchmarkSpecsPass) {
  for (const char* text :
       {"udg:1000000:0.003", "udg:100000:0.008", "udg:10000:0.02"}) {
    EXPECT_NO_THROW(cli::checkGraphSize(cli::parseGraphSpec(text), 4e9))
        << text;
  }
}

}  // namespace
}  // namespace selfstab
