#include "cli/sim_options.hpp"

#include <charconv>
#include <limits>

namespace selfstab::cli {

namespace {

[[noreturn]] void fail(const std::string& message) { throw CliError(message); }

std::uint64_t parseU64(const std::string& text, const std::string& what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail("invalid " + what + ": '" + text + "'");
  }
  return value;
}

double parseProbability(const std::string& text, const std::string& what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    // !(a && b) instead of (< || >): NaN must not slip through.
    if (consumed != text.size() || !(value >= 0.0 && value <= 1.0)) {
      fail("invalid " + what + " (want [0,1]): '" + text + "'");
    }
    return value;
  } catch (const std::logic_error&) {
    fail("invalid " + what + ": '" + text + "'");
  }
}

double parsePositive(const std::string& text, const std::string& what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !(value > 0.0)) {  // NaN-safe
      fail("invalid " + what + " (want > 0): '" + text + "'");
    }
    return value;
  } catch (const std::logic_error&) {
    fail("invalid " + what + ": '" + text + "'");
  }
}

/// Seconds to whole microseconds. A value below 1 us would truncate to 0
/// (a zero report step never advances the timeline), and one at or above the
/// SimTime range has no defined conversion; both are rejected.
adhoc::SimTime secondsToSimTime(const std::string& text,
                                const std::string& what) {
  const double us =
      parsePositive(text, what) * static_cast<double>(adhoc::kSecond);
  constexpr auto kMax = std::numeric_limits<adhoc::SimTime>::max();
  if (!(us >= 1.0 && us < static_cast<double>(kMax))) {
    fail("invalid " + what + " (want 1e-6 to 9.2e12 seconds): '" + text +
         "'");
  }
  return static_cast<adhoc::SimTime>(us);
}

}  // namespace

SimOptions parseSimOptions(const std::vector<std::string>& args) {
  SimOptions options;

  const auto next = [&](std::size_t& i, const std::string& flag) {
    if (i + 1 >= args.size()) fail("missing value for " + flag);
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--protocol" || arg == "-p") {
      const std::string value = next(i, arg);
      if (value == "smm") {
        options.protocol = SimProtocolKind::Smm;
      } else if (value == "sis") {
        options.protocol = SimProtocolKind::Sis;
      } else if (value == "leadertree") {
        options.protocol = SimProtocolKind::LeaderTree;
      } else {
        fail("unknown protocol '" + value + "'");
      }
    } else if (arg == "--nodes" || arg == "-n") {
      options.nodes = parseU64(next(i, arg), "node count");
      if (options.nodes == 0) fail("need at least one node");
    } else if (arg == "--radius") {
      options.radius = parsePositive(next(i, arg), "radius");
    } else if (arg == "--seed") {
      options.seed = parseU64(next(i, arg), "seed");
    } else if (arg == "--beacon-ms") {
      options.beaconInterval =
          static_cast<adhoc::SimTime>(parseU64(next(i, arg), "beacon-ms")) *
          adhoc::kMillisecond;
      if (options.beaconInterval <= 0) fail("beacon interval must be > 0");
    } else if (arg == "--loss") {
      options.lossProbability = parseProbability(next(i, arg), "loss");
    } else if (arg == "--collision-us") {
      options.collisionWindow = static_cast<adhoc::SimTime>(
          parseU64(next(i, arg), "collision-us"));
    } else if (arg == "--timeout-factor") {
      options.timeoutFactor = parsePositive(next(i, arg), "timeout factor");
    } else if (arg == "--schedule") {
      const std::string value = next(i, arg);
      if (value == "dense") {
        options.schedule = engine::Schedule::Dense;
      } else if (value == "active") {
        options.schedule = engine::Schedule::Active;
      } else {
        fail("unknown schedule '" + value + "'");
      }
    } else if (arg == "--kernel") {
      const std::string value = next(i, arg);
      if (value == "auto") {
        options.kernel = engine::KernelMode::Auto;
      } else if (value == "generic") {
        options.kernel = engine::KernelMode::Generic;
      } else if (value == "flat") {
        options.kernel = engine::KernelMode::Flat;
      } else {
        fail("unknown kernel '" + value + "'");
      }
    } else if (arg == "--index") {
      const std::string value = next(i, arg);
      if (value == "grid") {
        options.index = adhoc::IndexMode::Grid;
      } else if (value == "scan") {
        options.index = adhoc::IndexMode::Scan;
      } else {
        fail("unknown index '" + value + "'");
      }
    } else if (arg == "--queue") {
      const std::string value = next(i, arg);
      if (value == "calendar") {
        options.queue = adhoc::QueueMode::Calendar;
      } else if (value == "heap") {
        options.queue = adhoc::QueueMode::Heap;
      } else {
        fail("unknown queue '" + value + "'");
      }
    } else if (arg == "--mobility") {
      const std::string value = next(i, arg);
      if (value == "static") {
        options.mobility = MobilityKind::Static;
      } else if (value == "waypoint") {
        options.mobility = MobilityKind::Waypoint;
      } else {
        fail("unknown mobility '" + value + "'");
      }
    } else if (arg == "--speed") {
      const std::string value = next(i, arg);
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) fail("speed spec must be MIN:MAX");
      options.speedMin = parsePositive(value.substr(0, colon), "speed min");
      options.speedMax = parsePositive(value.substr(colon + 1), "speed max");
      if (options.speedMin > options.speedMax) fail("speed min > max");
    } else if (arg == "--stop-sec") {
      options.stopTime = secondsToSimTime(next(i, arg), "stop-sec");
    } else if (arg == "--duration-sec") {
      options.duration = secondsToSimTime(next(i, arg), "duration-sec");
    } else if (arg == "--report-sec") {
      options.reportEvery = secondsToSimTime(next(i, arg), "report-sec");
    } else if (arg == "--no-early-stop") {
      options.untilQuiet = false;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--metrics") {
      options.metricsPath = next(i, arg);
    } else if (arg == "--events") {
      options.eventsPath = next(i, arg);
    } else if (arg == "--chaos") {
      options.chaosSpec = next(i, arg);
      if (options.chaosSpec.empty()) fail("--chaos needs a plan");
    } else {
      fail("unknown argument '" + arg + "' (try --help)");
    }
  }
  return options;
}

std::string simUsage() {
  return R"(selfstab-sim — protocols over the beacon-model network simulator

usage: selfstab-sim [options]

  --protocol, -p   smm | sis | leadertree                [default: smm]
  --nodes, -n      host count                            [default: 25]
  --radius         radio range (unit-square widths)      [default: 0.35]
  --seed           64-bit seed                           [default: 1]
  --beacon-ms      beacon interval in milliseconds       [default: 100]
  --loss           per-beacon loss probability           [default: 0]
  --collision-us   MAC collision window in microseconds  [default: 0 = off]
  --timeout-factor neighbor expiry in beacon intervals   [default: 2.5]
  --schedule       dense | active (skip rule evaluation
                   on nodes whose view is unchanged)     [default: dense]
  --kernel         auto | generic | flat (devirtualized rule
                   evaluation for smm/sis; bit-identical)  [default: auto]
  --index          grid | scan spatial index for radio
                   fan-out (bit-identical results; scan
                   is the O(n^2) reference)              [default: grid]
  --queue          calendar | heap event queue
                   (bit-identical results)               [default: calendar]
  --mobility       static | waypoint                     [default: static]
  --speed          waypoint speed range MIN:MAX          [default: 0.01:0.04]
  --stop-sec       freeze waypoint motion at this time   [default: never]
  --duration-sec   simulated time budget                 [default: 60]
  --report-sec     timeline row interval                 [default: 10]
  --no-early-stop  run the full duration even if quiet
  --json           emit the final report as JSON (suppresses the timeline)
  --metrics PATH   dump run telemetry as JSON + Prometheus text ("-" = stdout)
  --events PATH    write a JSONL event log ("-" = stdout)
  --chaos SPEC     run a fault campaign: a JSON plan file, or a built-in
                   template "churn:SEED" | "crash-storm:SEED"
                   | "rolling-partition:SEED" (see docs/ROBUSTNESS.md)
  --help, -h       this text

examples:
  selfstab-sim -p smm -n 30 --loss 0.1
  selfstab-sim -p sis --mobility waypoint --stop-sec 40 --duration-sec 120
  selfstab-sim -p smm -n 30 --chaos crash-storm:3 --events -
)";
}

std::string_view toString(SimProtocolKind kind) noexcept {
  switch (kind) {
    case SimProtocolKind::Smm:
      return "smm";
    case SimProtocolKind::Sis:
      return "sis";
    case SimProtocolKind::LeaderTree:
      return "leadertree";
  }
  return "?";
}

}  // namespace selfstab::cli
