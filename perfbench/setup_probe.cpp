// Times a workload's set-up through the CLI surface only (cli/ headers):
//
//   perfbench_setup selfstab     <repeats> <selfstab args...>
//   perfbench_setup selfstab-sim <repeats> <selfstab-sim args...>
//
// selfstab: the two calls execute() makes before its first round,
// cli::buildGraph and cli::buildIds. selfstab-sim: cli::executeSim with a
// simulated duration shorter than one report period, so the beacon loop never
// runs; what remains is placement, simulator construction and the final
// topology snapshot and verification at time 0.
//
// Prints one JSON object: {"setup_s": [...], "m": <edges of the last graph>}.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/run.hpp"
#include "cli/sim_options.hpp"
#include "cli/sim_run.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace selfstab::cli;
  if (argc < 3) {
    std::cerr << "usage: perfbench_setup selfstab|selfstab-sim <repeats> "
                 "<cli args...>\n";
    return 1;
  }
  const std::string tool = argv[1];
  const int repeats = std::atoi(argv[2]);
  if (repeats < 1) {
    std::cerr << "perfbench_setup: repeats must be >= 1\n";
    return 1;
  }
  const std::vector<std::string> args(argv + 3, argv + argc);
  std::vector<double> times;
  std::size_t m = 0;
  try {
    if (tool == "selfstab") {
      const Options options = parseOptions(args);
      for (int i = 0; i < repeats; ++i) {
        const auto start = Clock::now();
        const auto g = buildGraph(options.graph, options.seed);
        const auto ids = buildIds(options.idOrder, g.order(), options.seed);
        times.push_back(secondsSince(start));
        m = g.size();
        if (ids.order() != g.order()) {
          std::cerr << "perfbench_setup: id count differs from node count\n";
          return 3;
        }
      }
    } else if (tool == "selfstab-sim") {
      SimOptions options = parseSimOptions(args);
      options.duration = 1;  // one microsecond: below the first report tick
      options.reportEvery = options.beaconInterval;
      options.json = true;  // no timeline header
      for (int i = 0; i < repeats; ++i) {
        std::ostringstream sink;
        const auto start = Clock::now();
        const SimReport report = executeSim(options, sink);
        times.push_back(secondsSince(start));
        if (report.beaconsSent != 0) {
          std::cerr << "perfbench_setup: set-up probe sent beacons\n";
          return 3;
        }
      }
    } else {
      std::cerr << "perfbench_setup: unknown tool '" << tool << "'\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_setup: " << e.what() << '\n';
    return 1;
  }
  std::cout << "{\"setup_s\": [";
  std::cout.precision(9);
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << times[i];
  }
  std::cout << "], \"m\": " << m << "}\n";
  return 0;
}
