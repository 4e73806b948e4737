// Structured event sink: one JSON object per line (JSONL).
//
// Metrics aggregate; events narrate. The executors and the beacon network
// emit one record per interesting occurrence — a round executed, a beacon
// lost, a neighbor expired — and the JSONL stream is greppable and
// jq-able without any parser beyond "split on newline". Records carry only
// simulation-intrinsic fields (round indices, simulated time), never wall
// clock, so event logs of deterministic runs are byte-reproducible.
//
// Thread-safe: each record is rendered into a local buffer and appended
// under a mutex, so concurrent emitters (e.g. several runners on different
// threads sharing one log) cannot interleave partial lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"

namespace selfstab::telemetry {

/// One key plus a JSON scalar. Only the types events actually need.
class Field {
 public:
  Field(std::string_view key, double v) : key_(key) { renderDouble(v); }
  // One constructor per builtin integer type (the <cstdint> typedefs alias
  // different builtins per platform and would collide).
  Field(std::string_view key, long long v) : key_(key) {
    rendered_ = std::to_string(v);
  }
  Field(std::string_view key, unsigned long long v) : key_(key) {
    rendered_ = std::to_string(v);
  }
  Field(std::string_view key, int v)
      : Field(key, static_cast<long long>(v)) {}
  Field(std::string_view key, long v)
      : Field(key, static_cast<long long>(v)) {}
  Field(std::string_view key, unsigned v)
      : Field(key, static_cast<unsigned long long>(v)) {}
  Field(std::string_view key, unsigned long v)
      : Field(key, static_cast<unsigned long long>(v)) {}
  Field(std::string_view key, bool v) : key_(key) {
    rendered_ = v ? "true" : "false";
  }
  Field(std::string_view key, std::string_view v) : key_(key) {
    rendered_ = '"' + jsonEscaped(v) + '"';
  }
  Field(std::string_view key, const char* v)
      : Field(key, std::string_view(v)) {}

  [[nodiscard]] std::string_view key() const noexcept { return key_; }
  [[nodiscard]] std::string_view rendered() const noexcept {
    return rendered_;
  }

 private:
  void renderDouble(double v) {
    std::ostringstream ss;
    ss.precision(std::numeric_limits<double>::max_digits10);
    ss << v;
    rendered_ = ss.str();
    // JSON cannot represent non-finite numbers.
    if (rendered_ == "inf" || rendered_ == "-inf" || rendered_ == "nan" ||
        rendered_ == "-nan") {
      rendered_ = "null";
    }
  }

  std::string key_;
  std::string rendered_;
};

class EventLog {
 public:
  explicit EventLog(std::ostream& out) : out_(&out) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends {"type":<type>,<fields...>}\n. Keys are escaped; duplicate
  /// keys are the caller's bug (emitted as-is, still valid JSONL lines).
  void emit(std::string_view type, std::initializer_list<Field> fields) {
    std::string line;
    line.reserve(48 + 24 * fields.size());
    line += "{\"type\":\"";
    appendJsonEscaped(line, type);
    line += '"';
    for (const Field& f : fields) {
      line += ",\"";
      appendJsonEscaped(line, f.key());
      line += "\":";
      line += f.rendered();
    }
    line += "}\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    *out_ << line;
    ++lines_;
  }

  [[nodiscard]] std::size_t lineCount() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::ostream* out_;
  mutable std::mutex mutex_;
  std::size_t lines_ = 0;
};

}  // namespace selfstab::telemetry
