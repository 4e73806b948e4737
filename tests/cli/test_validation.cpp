// Input validation: NetworkConfig::validate and the CLI flags that feed it.
// Bad physical parameters must fail fast with a clear message, not produce
// a silently degenerate simulation.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "adhoc/network.hpp"
#include "cli/options.hpp"
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

}  // namespace
}  // namespace selfstab
