// Shared --metrics / --events plumbing for the selfstab and selfstab-sim
// CLIs: open the requested sinks ("-" meaning the CLI's stdout stream) and
// dump a Registry in both export formats.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "cli/options.hpp"  // CliError
#include "graph/graph.hpp"
#include "graph/id_order.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::cli {

/// Sets the memory ledger's gauges (telemetry::names, "Memory ledger") on
/// `registry`, if there is one: g's offsets, slices with their entry
/// width, and labels; the IDs; `stateBytes` of states and `mirrorBytes`
/// of kernel mirror.
inline void recordBulkBytes(telemetry::Registry* registry,
                            const graph::Graph& g,
                            const graph::IdAssignment& ids,
                            std::size_t stateBytes, std::size_t mirrorBytes) {
  if (registry == nullptr) return;
  namespace names = telemetry::names;
  const auto set = [&](const char* name, std::size_t bytes) {
    registry->gauge(name).set(static_cast<double>(bytes));
  };
  set(names::kGraphOffsetBytes, g.offsetBytes());
  set(names::kGraphSliceBytes, g.sliceBytes());
  set(names::kGraphSliceEntryBytes,
      g.narrow() ? sizeof(graph::Delta) : sizeof(graph::Vertex));
  set(names::kGraphLabelBytes, g.labelBytes());
  set(names::kIdBytes, ids.bytes());
  set(names::kStateBytes, stateBytes);
  set(names::kKernelMirrorBytes, mirrorBytes);
}

/// Dumps `registry` to `path`: first the one-line JSON document, then the
/// Prometheus text exposition of the same instruments. `path` == "-" writes
/// to `dash` (the CLI's stdout). See docs/OBSERVABILITY.md for the schema.
inline void writeMetricsDump(const telemetry::Registry& registry,
                             const std::string& path, std::ostream& dash) {
  if (path == "-") {
    registry.writeJson(dash);
    registry.writePrometheus(dash);
    return;
  }
  std::ofstream file(path);
  if (!file) throw CliError("cannot write metrics file '" + path + "'");
  registry.writeJson(file);
  registry.writePrometheus(file);
}

/// Owns the stream behind an --events JSONL log for the duration of a run.
/// Default-constructed (no path) it hands out a null EventLog*.
class EventSink {
 public:
  EventSink() = default;

  EventSink(const std::string& path, std::ostream& dash) {
    if (path.empty()) return;
    if (path == "-") {
      log_.emplace(dash);
      return;
    }
    file_ = std::make_unique<std::ofstream>(path);
    if (!*file_) throw CliError("cannot write events file '" + path + "'");
    log_.emplace(*file_);
  }

  [[nodiscard]] telemetry::EventLog* get() noexcept {
    return log_.has_value() ? &*log_ : nullptr;
  }

 private:
  std::unique_ptr<std::ofstream> file_;  // stable address for the log
  std::optional<telemetry::EventLog> log_;
};

}  // namespace selfstab::cli
