#include "cli/options.hpp"

#include <charconv>
#include <unordered_map>

namespace selfstab::cli {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw CliError(message);
}

std::size_t parseSize(const std::string& text, const std::string& what) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail("invalid " + what + ": '" + text + "'");
  }
  return value;
}

double parseDouble(const std::string& text, const std::string& what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) fail("invalid " + what + ": '" + text + "'");
    return value;
  } catch (const std::logic_error&) {
    fail("invalid " + what + ": '" + text + "'");
  }
}

std::vector<std::string> splitColons(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t colon = text.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(begin));
      return parts;
    }
    parts.push_back(text.substr(begin, colon - begin));
    begin = colon + 1;
  }
}

}  // namespace

GraphSpec parseGraphSpec(const std::string& spec) {
  const auto parts = splitColons(spec);
  const std::string& kind = parts[0];
  GraphSpec gs;

  const auto wantParts = [&](std::size_t count) {
    if (parts.size() != count) {
      fail("graph spec '" + spec + "': expected " + std::to_string(count - 1) +
           " ':'-separated argument(s) after '" + kind + "'");
    }
  };

  if (kind == "path" || kind == "cycle" || kind == "star" ||
      kind == "complete" || kind == "tree") {
    wantParts(2);
    gs.n = parseSize(parts[1], "size");
    gs.kind = kind == "path"       ? GraphSpec::Kind::Path
              : kind == "cycle"    ? GraphSpec::Kind::Cycle
              : kind == "star"     ? GraphSpec::Kind::Star
              : kind == "complete" ? GraphSpec::Kind::Complete
                                   : GraphSpec::Kind::Tree;
    if (gs.kind == GraphSpec::Kind::Cycle && gs.n < 3) {
      fail("cycle needs at least 3 vertices");
    }
  } else if (kind == "grid") {
    wantParts(2);
    const std::size_t x = parts[1].find('x');
    if (x == std::string::npos) fail("grid spec must be grid:RxC");
    gs.kind = GraphSpec::Kind::Grid;
    gs.n = parseSize(parts[1].substr(0, x), "grid rows");
    gs.cols = parseSize(parts[1].substr(x + 1), "grid cols");
  } else if (kind == "gnp") {
    wantParts(3);
    gs.kind = GraphSpec::Kind::Gnp;
    gs.n = parseSize(parts[1], "size");
    gs.param = parseDouble(parts[2], "edge probability");
    // !(a && b) instead of (< || >): NaN must not slip through.
    if (!(gs.param >= 0.0 && gs.param <= 1.0)) {
      fail("gnp probability not in [0,1]");
    }
  } else if (kind == "udg") {
    wantParts(3);
    gs.kind = GraphSpec::Kind::Udg;
    gs.n = parseSize(parts[1], "size");
    gs.param = parseDouble(parts[2], "radius");
    if (!(gs.param > 0.0)) fail("udg radius must be positive");  // NaN-safe
  } else if (kind == "file") {
    wantParts(2);
    gs.kind = GraphSpec::Kind::File;
    gs.path = parts[1];
    if (gs.path.empty()) fail("file spec needs a path");
  } else {
    fail("unknown graph kind '" + kind + "'");
  }
  return gs;
}

Options parseOptions(const std::vector<std::string>& args) {
  Options options;

  const auto next = [&](std::size_t& i, const std::string& flag) {
    if (i + 1 >= args.size()) fail("missing value for " + flag);
    return args[++i];
  };

  static const std::unordered_map<std::string, ProtocolKind> kProtocols{
      {"smm", ProtocolKind::Smm},
      {"smm-arbitrary", ProtocolKind::SmmArbitrary},
      {"hh-sync", ProtocolKind::HsuHuangSync},
      {"sis", ProtocolKind::Sis},
      {"coloring", ProtocolKind::Coloring},
      {"domset", ProtocolKind::DominatingSet},
      {"bfstree", ProtocolKind::BfsTree},
      {"leadertree", ProtocolKind::LeaderTree},
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--protocol" || arg == "-p") {
      const std::string value = next(i, arg);
      const auto it = kProtocols.find(value);
      if (it == kProtocols.end()) fail("unknown protocol '" + value + "'");
      options.protocol = it->second;
    } else if (arg == "--graph" || arg == "-g") {
      options.graph = parseGraphSpec(next(i, arg));
    } else if (arg == "--ids") {
      const std::string value = next(i, arg);
      if (value == "identity") {
        options.idOrder = IdOrderKind::Identity;
      } else if (value == "reversed") {
        options.idOrder = IdOrderKind::Reversed;
      } else if (value == "random") {
        options.idOrder = IdOrderKind::Random;
      } else {
        fail("unknown id order '" + value + "'");
      }
    } else if (arg == "--start") {
      const std::string value = next(i, arg);
      if (value == "clean") {
        options.start = StartKind::Clean;
      } else if (value == "random") {
        options.start = StartKind::Random;
      } else {
        fail("unknown start '" + value + "'");
      }
    } else if (arg == "--seed") {
      options.seed = parseSize(next(i, arg), "seed");
    } else if (arg == "--max-rounds") {
      options.maxRounds = parseSize(next(i, arg), "max rounds");
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
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--dot") {
      options.dotPath = next(i, arg);
    } else if (arg == "--csv") {
      options.csvPath = next(i, arg);
    } else if (arg == "--save-graph") {
      options.saveGraphPath = next(i, arg);
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

std::string usage() {
  return R"(selfstab — self-stabilizing protocols for ad hoc networks
(Goddard, Hedetniemi, Jacobs, Srimani; IPDPS 2003)

usage: selfstab [options]

  --protocol, -p  smm | smm-arbitrary | hh-sync | sis | coloring | domset
                  | bfstree | leadertree                      [default: smm]
  --graph, -g     path:N | cycle:N | star:N | complete:N | tree:N
                  | grid:RxC | gnp:N:P | udg:N:R | file:PATH  [default: gnp:32:0.1]
  --ids           identity | reversed | random                [default: identity]
  --start         clean | random                              [default: clean]
  --seed          64-bit seed for all randomness              [default: 1]
  --max-rounds    round budget (0 = protocol-appropriate)     [default: 0]
  --schedule      dense | active: dense adapts (it evaluates the
                  neighbourhoods of last round's moves, as a list
                  or as a sweep); active always walks the list;
                  trajectory is bit-identical                 [default: dense]
  --kernel        auto | generic | flat (compiled SoA fast path for
                  smm/sis; trajectory is bit-identical)       [default: auto]
  --json          print the run report as one JSON object
  --trace         print per-round progress
  --dot PATH      write the final graph + solution as Graphviz DOT
  --csv PATH      write a per-round CSV trace (round, moves, size)
  --save-graph P  write the (possibly generated) topology as an edge list
  --metrics PATH  dump run telemetry as JSON + Prometheus text ("-" = stdout)
  --events PATH   write a JSONL event log ("-" = stdout)
  --chaos SPEC    run a fault campaign: a JSON plan file, or a built-in
                  template "churn:SEED" | "crash-storm:SEED"
                  | "rolling-partition:SEED" (see docs/ROBUSTNESS.md)
  --help, -h      this text

examples:
  selfstab -p smm -g udg:50:0.3 --trace
  selfstab -p sis -g file:topo.txt --ids random --seed 7
  selfstab -p smm-arbitrary -g cycle:4     # the paper's counterexample
  selfstab -p smm -g gnp:40:0.15 --chaos churn:7 --events -
)";
}

std::string_view toString(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::Smm:
      return "smm";
    case ProtocolKind::SmmArbitrary:
      return "smm-arbitrary";
    case ProtocolKind::HsuHuangSync:
      return "hh-sync";
    case ProtocolKind::Sis:
      return "sis";
    case ProtocolKind::Coloring:
      return "coloring";
    case ProtocolKind::DominatingSet:
      return "domset";
    case ProtocolKind::BfsTree:
      return "bfstree";
    case ProtocolKind::LeaderTree:
      return "leadertree";
  }
  return "?";
}

}  // namespace selfstab::cli
