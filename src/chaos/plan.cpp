#include "chaos/plan.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "graph/rng.hpp"

namespace selfstab::chaos {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader. The repo's telemetry/json.hpp only *writes* JSON; the
// plan schema is small enough (objects, arrays, strings, numbers, bools)
// that a recursive-descent reader here beats importing a dependency the
// container does not have. Errors carry the byte offset.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PlanError("plan JSON: " + what + " at byte " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null();
      default:
        return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      JsonValue key = string();
      expect(':');
      v.object.emplace_back(std::move(key.string), value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::String;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          default:
            fail("unsupported escape sequence");  // \uXXXX not needed here
        }
      }
      v.string += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected 'true' or 'false'");
    }
    return v;
  }

  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("expected 'null'");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    try {
      std::size_t consumed = 0;
      v.number = std::stod(text_.substr(start, pos_ - start), &consumed);
      if (consumed != pos_ - start) throw std::invalid_argument("");
    } catch (const std::exception&) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JSON -> FaultEvent field mapping.

double numberField(const JsonValue& obj, std::string_view key, double fallback,
                   bool* present = nullptr) {
  const JsonValue* v = obj.find(key);
  if (present != nullptr) *present = v != nullptr;
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::Number) {
    throw PlanError("plan JSON: field '" + std::string(key) +
                    "' must be a number");
  }
  return v->number;
}

std::int64_t intField(const JsonValue& obj, std::string_view key,
                      std::int64_t fallback) {
  const double d = numberField(obj, key, static_cast<double>(fallback));
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw PlanError("plan JSON: field '" + std::string(key) +
                    "' must be an integer");
  }
  return i;
}

graph::Vertex vertexField(const JsonValue& obj, std::string_view key,
                          bool required) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) {
      throw PlanError("plan JSON: missing required field '" +
                      std::string(key) + "'");
    }
    return graph::kNoVertex;
  }
  if (v->type != JsonValue::Type::Number || v->number < 0 ||
      v->number != static_cast<double>(static_cast<std::uint64_t>(v->number))) {
    throw PlanError("plan JSON: field '" + std::string(key) +
                    "' must be a non-negative integer");
  }
  return static_cast<graph::Vertex>(v->number);
}

std::vector<graph::Vertex> vertexListField(const JsonValue& obj,
                                           std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return {};
  if (v->type != JsonValue::Type::Array) {
    throw PlanError("plan JSON: field '" + std::string(key) +
                    "' must be an array of vertices");
  }
  std::vector<graph::Vertex> out;
  out.reserve(v->array.size());
  for (const JsonValue& item : v->array) {
    if (item.type != JsonValue::Type::Number || item.number < 0) {
      throw PlanError("plan JSON: '" + std::string(key) +
                      "' entries must be non-negative integers");
    }
    out.push_back(static_cast<graph::Vertex>(item.number));
  }
  return out;
}

bool needsNode(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::Crash:
    case FaultKind::Rejoin:
    case FaultKind::Garble:
    case FaultKind::ClockDrift:
    case FaultKind::Stuck:
    case FaultKind::Release:
      return true;
    default:
      return false;
  }
}

FaultEvent eventFromJson(const JsonValue& obj, std::size_t index) {
  if (obj.type != JsonValue::Type::Object) {
    throw PlanError("plan JSON: events[" + std::to_string(index) +
                    "] must be an object");
  }
  const JsonValue* kindValue = obj.find("kind");
  if (kindValue == nullptr || kindValue->type != JsonValue::Type::String) {
    throw PlanError("plan JSON: events[" + std::to_string(index) +
                    "] needs a string 'kind'");
  }
  FaultEvent ev;
  ev.kind = faultKindFromString(kindValue->string);
  ev.at = intField(obj, "at", 0);
  ev.node = vertexField(obj, "node", needsNode(ev.kind));
  ev.nodes = vertexListField(obj, "nodes");
  ev.fraction = numberField(obj, "fraction", ev.fraction);
  ev.p = numberField(obj, "p", ev.p);
  ev.duration = intField(obj, "duration", ev.duration);
  ev.factor = numberField(obj, "factor", ev.factor);
  return ev;
}

}  // namespace

std::string_view toString(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Crash: return "crash";
    case FaultKind::Rejoin: return "rejoin";
    case FaultKind::PartitionCut: return "partition_cut";
    case FaultKind::PartitionHeal: return "partition_heal";
    case FaultKind::Garble: return "garble";
    case FaultKind::LossBurst: return "loss_burst";
    case FaultKind::ClockDrift: return "clock_drift";
    case FaultKind::Stuck: return "stuck";
    case FaultKind::Release: return "release";
  }
  return "unknown";
}

FaultKind faultKindFromString(std::string_view s) {
  for (const FaultKind kind :
       {FaultKind::Corrupt, FaultKind::Crash, FaultKind::Rejoin,
        FaultKind::PartitionCut, FaultKind::PartitionHeal, FaultKind::Garble,
        FaultKind::LossBurst, FaultKind::ClockDrift, FaultKind::Stuck,
        FaultKind::Release}) {
    if (toString(kind) == s) return kind;
  }
  throw PlanError("unknown fault kind '" + std::string(s) + "'");
}

std::int64_t FaultPlan::lastEventRound() const noexcept {
  std::int64_t last = -1;
  for (const FaultEvent& ev : events) {
    std::int64_t end = ev.at;
    if (ev.kind == FaultKind::LossBurst) end += ev.duration;
    last = std::max(last, end);
  }
  return last;
}

double FaultPlan::maxDriftFactor() const noexcept {
  double factor = 1.0;
  for (const FaultEvent& ev : events) {
    if (ev.kind == FaultKind::ClockDrift) {
      factor = std::max(factor, ev.factor);
    }
  }
  return factor;
}

void validatePlan(const FaultPlan& plan, std::size_t n) {
  auto fail = [](std::size_t index, const std::string& what) {
    throw PlanError("plan events[" + std::to_string(index) + "]: " + what);
  };
  std::vector<char> crashed(n, 0);
  std::vector<char> stuck(n, 0);
  bool partitioned = false;
  std::int64_t prevAt = 0;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& ev = plan.events[i];
    if (ev.at < 0) fail(i, "negative round index");
    if (ev.at < prevAt) fail(i, "events must be sorted by 'at'");
    prevAt = ev.at;
    if (needsNode(ev.kind)) {
      if (ev.node >= n) fail(i, "node out of range");
    }
    for (const graph::Vertex v : ev.nodes) {
      if (v >= n) fail(i, "nodes entry out of range");
    }
    switch (ev.kind) {
      case FaultKind::Corrupt:
        if (ev.nodes.empty() &&
            !(ev.fraction >= 0.0 && ev.fraction <= 1.0)) {
          fail(i, "fraction must be in [0,1]");
        }
        break;
      case FaultKind::Crash:
        if (crashed[ev.node] != 0) fail(i, "node is already crashed");
        crashed[ev.node] = 1;
        break;
      case FaultKind::Rejoin:
        if (crashed[ev.node] == 0) fail(i, "rejoin of a node not crashed");
        crashed[ev.node] = 0;
        break;
      case FaultKind::PartitionCut:
        if (partitioned) fail(i, "a partition is already active");
        if (ev.nodes.empty() || ev.nodes.size() >= n) {
          fail(i, "partition side must be a proper non-empty subset");
        }
        partitioned = true;
        break;
      case FaultKind::PartitionHeal:
        if (!partitioned) fail(i, "no partition to heal");
        partitioned = false;
        break;
      case FaultKind::LossBurst:
        if (!(ev.p >= 0.0 && ev.p <= 1.0)) fail(i, "p must be in [0,1]");
        if (ev.duration <= 0) fail(i, "duration must be positive");
        break;
      case FaultKind::ClockDrift:
        if (!(ev.factor > 0.0)) fail(i, "factor must be positive");
        break;
      case FaultKind::Stuck:
        if (stuck[ev.node] != 0) fail(i, "node is already stuck");
        stuck[ev.node] = 1;
        break;
      case FaultKind::Release:
        if (stuck[ev.node] == 0) fail(i, "release of a node not stuck");
        stuck[ev.node] = 0;
        break;
      case FaultKind::Garble:
        break;
    }
  }
}

FaultPlan parsePlanJson(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonReader reader(buffer.str());
  const JsonValue root = reader.parse();
  if (root.type != JsonValue::Type::Object) {
    throw PlanError("plan JSON: top level must be an object");
  }
  const JsonValue* events = root.find("events");
  if (events == nullptr || events->type != JsonValue::Type::Array) {
    throw PlanError("plan JSON: missing 'events' array");
  }
  FaultPlan plan;
  plan.events.reserve(events->array.size());
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    plan.events.push_back(eventFromJson(events->array[i], i));
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

FaultPlan parsePlanFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw PlanError("cannot open plan file '" + path + "'");
  try {
    return parsePlanJson(file);
  } catch (const PlanError& e) {
    throw PlanError("'" + path + "': " + e.what());
  }
}

bool isCampaignTemplate(std::string_view name) noexcept {
  return name == "churn" || name == "crash-storm" ||
         name == "rolling-partition";
}

FaultPlan makeCampaign(std::string_view name, std::uint64_t seed,
                       std::size_t n) {
  if (n == 0) throw PlanError("campaign needs at least one node");
  // Gap between consecutive faults: the paper-bound recovery window (2n+1
  // for SMM, the larger of the gate bounds) plus slack for the beacon
  // model's jittered round boundaries.
  const auto gap = static_cast<std::int64_t>(2 * n + 8);
  Rng rng(hashCombine(seed, 0xC4A0CA4DULL));
  // Distinct victims so crash/stuck bookkeeping never collides.
  std::vector<graph::Vertex> victims(n);
  for (graph::Vertex v = 0; v < n; ++v) victims[v] = v;
  rng.shuffle(victims);
  auto victim = [&](std::size_t i) { return victims[i % victims.size()]; };

  // Fluent single-event builder; keeps the template listings terse without
  // the partially-designated-initializer warnings -Wextra would raise.
  struct Ev {
    FaultEvent e;
    explicit Ev(FaultKind kind) { e.kind = kind; }
    Ev& node(graph::Vertex v) { e.node = v; return *this; }
    Ev& nodes(std::vector<graph::Vertex> ns) { e.nodes = std::move(ns); return *this; }
    Ev& fraction(double f) { e.fraction = f; return *this; }
    Ev& p(double value) { e.p = value; return *this; }
    Ev& duration(std::int64_t d) { e.duration = d; return *this; }
    Ev& factor(double f) { e.factor = f; return *this; }
  };

  FaultPlan plan;
  std::int64_t at = 4;  // first fault lands mid-convergence, not at a fixpoint
  auto add = [&](Ev ev) {
    ev.e.at = at;
    plan.events.push_back(std::move(ev.e));
    at += gap;
  };

  if (name == "churn") {
    add(Ev(FaultKind::Corrupt).fraction(0.3));
    const graph::Vertex crashNode = victim(0);
    add(Ev(FaultKind::Crash).node(crashNode));
    add(Ev(FaultKind::LossBurst).p(0.7).duration(
        std::max<std::int64_t>(3, gap / 4)));
    add(Ev(FaultKind::Rejoin).node(crashNode));
    const graph::Vertex driftNode = victim(1);
    add(Ev(FaultKind::ClockDrift).node(driftNode).factor(2.0));
    const graph::Vertex stuckNode = victim(2);
    add(Ev(FaultKind::Stuck).node(stuckNode));
    add(Ev(FaultKind::Release).node(stuckNode));
    add(Ev(FaultKind::ClockDrift).node(driftNode).factor(1.0));
    add(Ev(FaultKind::Garble).node(victim(3)));
    add(Ev(FaultKind::Corrupt).fraction(0.2));
  } else if (name == "crash-storm") {
    const std::size_t wave = std::min<std::size_t>(
        std::max<std::size_t>(1, n / 5), std::min<std::size_t>(3, n));
    for (std::size_t i = 0; i < wave; ++i) {
      add(Ev(FaultKind::Crash).node(victim(i)));
    }
    for (std::size_t i = 0; i < wave; ++i) {
      add(Ev(FaultKind::Rejoin).node(victim(i)));
    }
    add(Ev(FaultKind::Corrupt).fraction(0.5));
  } else if (name == "rolling-partition") {
    for (int cut = 0; cut < 3; ++cut) {
      // A fresh random proper subset each time; sides of size ~n/2.
      std::vector<graph::Vertex> side;
      for (graph::Vertex v = 0; v < n; ++v) {
        if (rng.chance(0.5)) side.push_back(v);
      }
      if (side.empty()) side.push_back(victim(cut));
      if (side.size() == n) side.pop_back();
      if (side.empty()) break;  // n == 1: no proper cut exists
      add(Ev(FaultKind::PartitionCut).nodes(std::move(side)));
      add(Ev(FaultKind::PartitionHeal));
    }
  } else {
    throw PlanError("unknown campaign template '" + std::string(name) + "'");
  }
  validatePlan(plan, n);
  return plan;
}

FaultPlan parseChaosSpec(const std::string& spec, std::size_t n) {
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos && isCampaignTemplate(spec.substr(0, colon))) {
    const std::string seedText = spec.substr(colon + 1);
    try {
      std::size_t consumed = 0;
      const std::uint64_t seed = std::stoull(seedText, &consumed);
      if (consumed != seedText.size()) throw std::invalid_argument("");
      return makeCampaign(spec.substr(0, colon), seed, n);
    } catch (const PlanError&) {
      throw;
    } catch (const std::exception&) {
      throw PlanError("bad campaign seed '" + seedText + "' in '" + spec +
                      "'");
    }
  }
  FaultPlan plan = parsePlanFile(spec);
  validatePlan(plan, n);
  return plan;
}

void toInternalFrame(FaultPlan& plan, const graph::Graph& g) {
  const std::vector<graph::Vertex> byLabel = graph::vertexByLabel(g);
  const auto map = [&](graph::Vertex& v) {
    if (v < byLabel.size()) v = byLabel[v];
  };
  for (FaultEvent& ev : plan.events) {
    for (graph::Vertex& v : ev.nodes) map(v);
    map(ev.node);
  }
}

std::vector<graph::Vertex> boundaryNodes(const graph::Graph& g,
                                         std::span<const std::uint8_t> side,
                                         std::span<const std::uint8_t> skip) {
  const auto skipped = [&](graph::Vertex v) {
    return !skip.empty() && skip[v] != 0;
  };
  std::vector<graph::Vertex> out;
  for (graph::Vertex v = 0; v < g.order(); ++v) {
    if (skipped(v)) continue;
    for (const graph::Vertex w : g.neighbors(v)) {
      if (!skipped(w) && side[v] != side[w]) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

}  // namespace selfstab::chaos
