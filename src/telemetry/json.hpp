// Minimal streaming JSON writer.
//
// The telemetry layer emits machine-readable output (metric dumps, JSONL
// event logs, CLI reports) without pulling in a JSON library the container
// may not have. JsonWriter produces RFC 8259 output: strings are escaped
// (quotes, backslash, control characters as \u00XX), doubles round-trip via
// max_digits10, and non-finite doubles — which JSON cannot represent — are
// emitted as null. Structural correctness (matching begin/end, commas) is
// the writer's job; callers just say what they mean.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace selfstab::telemetry {

/// Escapes `text` as the *contents* of a JSON string (no surrounding
/// quotes). Exposed separately so ad hoc formatters can reuse it.
inline void appendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
}

[[nodiscard]] inline std::string jsonEscaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  appendJsonEscaped(out, text);
  return out;
}

/// Streaming writer for one JSON document. Nesting is tracked so commas and
/// the key/value alternation come out right; misuse (a value where a key is
/// required, unbalanced end calls) is debug-asserted.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(&out) {}

  JsonWriter& beginObject() {
    prefix();
    *out_ << '{';
    stack_.push_back(Frame{Kind::Object, true, false});
    return *this;
  }

  JsonWriter& endObject() {
    assert(!stack_.empty() && stack_.back().kind == Kind::Object);
    assert(!stack_.back().keyPending && "dangling key before endObject");
    *out_ << '}';
    stack_.pop_back();
    return *this;
  }

  JsonWriter& beginArray() {
    prefix();
    *out_ << '[';
    stack_.push_back(Frame{Kind::Array, true, false});
    return *this;
  }

  JsonWriter& endArray() {
    assert(!stack_.empty() && stack_.back().kind == Kind::Array);
    *out_ << ']';
    stack_.pop_back();
    return *this;
  }

  JsonWriter& key(std::string_view name) {
    assert(!stack_.empty() && stack_.back().kind == Kind::Object);
    assert(!stack_.back().keyPending && "two keys in a row");
    comma();
    writeString(name);
    *out_ << ':';
    stack_.back().keyPending = true;
    return *this;
  }

  JsonWriter& value(std::string_view text) {
    prefix();
    writeString(text);
    return *this;
  }

  JsonWriter& value(const char* text) { return value(std::string_view(text)); }

  JsonWriter& value(bool b) {
    prefix();
    *out_ << (b ? "true" : "false");
    return *this;
  }

  JsonWriter& value(double v) {
    prefix();
    // JSON has no Inf/NaN; null is the conventional stand-in.
    if (v != v || v == std::numeric_limits<double>::infinity() ||
        v == -std::numeric_limits<double>::infinity()) {
      *out_ << "null";
      return *this;
    }
    std::ostringstream ss;
    ss.precision(std::numeric_limits<double>::max_digits10);
    ss << v;
    *out_ << ss.str();
    return *this;
  }

  // One overload per builtin integer type (not the <cstdint> typedefs,
  // which alias different builtins per platform); anything narrower would
  // otherwise prefer the bool overload.
  JsonWriter& value(long long v) {
    prefix();
    *out_ << v;
    return *this;
  }

  JsonWriter& value(unsigned long long v) {
    prefix();
    *out_ << v;
    return *this;
  }

  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(long v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<unsigned long long>(v));
  }
  JsonWriter& value(unsigned long v) {
    return value(static_cast<unsigned long long>(v));
  }

  /// True once every begin has been matched by an end.
  [[nodiscard]] bool complete() const noexcept { return stack_.empty(); }

 private:
  enum class Kind : std::uint8_t { Object, Array };
  struct Frame {
    Kind kind;
    bool first;
    bool keyPending;
  };

  void comma() {
    if (!stack_.empty()) {
      if (!stack_.back().first) *out_ << ',';
      stack_.back().first = false;
    }
  }

  /// Emits the separator appropriate before a value in the current frame.
  void prefix() {
    if (stack_.empty()) return;
    Frame& top = stack_.back();
    if (top.kind == Kind::Object) {
      assert(top.keyPending && "object value without a key");
      top.keyPending = false;
    } else {
      comma();
    }
  }

  void writeString(std::string_view text) {
    std::string escaped;
    escaped.reserve(text.size() + 2);
    escaped += '"';
    appendJsonEscaped(escaped, text);
    escaped += '"';
    *out_ << escaped;
  }

  std::ostream* out_;
  std::vector<Frame> stack_;
};

}  // namespace selfstab::telemetry
