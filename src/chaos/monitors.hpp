// Online recovery monitors for fault campaigns.
//
// Manne et al. analyze a self-stabilizing matching by how far a single
// fault's effects travel and how long repair takes; RecoveryMonitor measures
// both, live, for every event of a FaultPlan:
//
//  * recovery time   rounds from the fault until the verifier predicate
//                    holds again (masked stability under the engines,
//                    quiescence under the beacon simulator);
//  * containment     the largest BFS distance — on the topology at fault
//    radius          time — from the injected node set to any node that
//                    changed state during recovery (n if a changed node is
//                    unreachable from every injected node). The BFS grows
//                    lazily, one layer at a time, only as far as the
//                    farthest changed node, so a fault whose repair stays
//                    local costs its neighborhood, not the graph;
//  * safety          protocol-specific "a healthy node was harmed" checks
//    violations      (e.g. a matched edge between two non-faulty nodes
//                    broken), counted per committed round.
//
// Everything is exported twice: through the telemetry registry
// (chaos_faults_injected, recovery_rounds / containment_radius histograms,
// safety_violations_total) and as "chaos_fault"/"chaos_recovered" JSONL
// records, both keyed by round index — never wall clock — so campaign logs
// stay byte-reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/plan.hpp"
#include "graph/graph.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::chaos {

/// Counts safety violations in one committed round. `faulty[v]` is nonzero
/// while v is crashed, stuck, or was injected by the still-open fault
/// window; violations are only charged to non-faulty nodes. Contract: an
/// identity transition (before == after) has no violations — a check
/// charges only transitions that harm someone — so callers skip rounds in
/// which nothing changed instead of asking.
template <typename State>
using SafetyCheck = std::function<std::size_t(
    const graph::Graph& g, const std::vector<State>& before,
    const std::vector<State>& after, const std::vector<std::uint8_t>& faulty)>;

class RecoveryMonitor {
 public:
  struct Record {
    std::int64_t at = 0;          ///< round the fault fired
    std::string kind;             ///< FaultKind spelling
    std::size_t injected = 0;     ///< nodes the event touched directly
    std::size_t recoveryRounds = 0;
    std::size_t containmentRadius = 0;
    bool recovered = false;       ///< predicate restored within the window
  };

  /// Either pointer may be null. Histogram buckets are the size ladder
  /// (0,1,2,4,...,256): recovery is bounded by 2n+1 and containment by n for
  /// campaign-sized systems.
  void attachTelemetry(telemetry::Registry* registry,
                       telemetry::EventLog* events) {
    events_ = events;
    if (registry == nullptr) {
      faults_ = nullptr;
      recoveryRounds_ = nullptr;
      containmentRadius_ = nullptr;
      safetyViolations_ = nullptr;
      return;
    }
    namespace names = telemetry::names;
    faults_ = &registry->counter(names::kChaosFaultsInjected);
    recoveryRounds_ = &registry->histogram(names::kRecoveryRounds,
                                           telemetry::sizeBuckets());
    containmentRadius_ = &registry->histogram(names::kContainmentRadius,
                                              telemetry::sizeBuckets());
    safetyViolations_ = &registry->counter(names::kSafetyViolations);
  }

  /// Opens a fault window (closing any still-open one as unrecovered is the
  /// caller's job via onRecovered). `topo` is the effective topology at
  /// fault time; distances from `injected` are measured on it. The monitor
  /// keeps a reference and explores it lazily from onStateChanged, so `topo`
  /// must stay alive and unchanged until onRecovered closes the window.
  void onFault(std::int64_t at, FaultKind kind,
               const std::vector<graph::Vertex>& injected,
               const graph::Graph& topo) {
    open_ = true;
    current_ = Record{};
    current_.at = at;
    current_.kind = std::string(toString(kind));
    current_.injected = injected.size();
    startSearch(injected, topo);
    maxChangedDistance_ = 0;
    if (faults_ != nullptr) faults_->inc();
    if (events_ != nullptr) {
      events_->emit("chaos_fault", {{"round", at},
                                    {"kind", current_.kind},
                                    {"injected", injected.size()}});
    }
  }

  /// Reports that v's state changed while the current window is open.
  /// Cheap enough for per-move hooks: a label lookup and a max, plus the
  /// BFS layers needed to reach v the first time the window meets a node
  /// farther out than any before.
  void onStateChanged(graph::Vertex v) {
    if (!open_) return;
    maxChangedDistance_ = std::max(maxChangedDistance_, distanceTo(v));
  }

  /// Closes the open window: `rounds` since the fault, and whether the
  /// verifier predicate was restored. No-op if no window is open.
  void onRecovered(std::size_t rounds, bool recovered) {
    if (!open_) return;
    open_ = false;
    current_.recoveryRounds = rounds;
    current_.containmentRadius = maxChangedDistance_;
    current_.recovered = recovered;
    if (recoveryRounds_ != nullptr) {
      recoveryRounds_->observe(static_cast<double>(rounds));
    }
    if (containmentRadius_ != nullptr) {
      containmentRadius_->observe(
          static_cast<double>(current_.containmentRadius));
    }
    if (events_ != nullptr) {
      events_->emit("chaos_recovered",
                    {{"round", current_.at},
                     {"kind", current_.kind},
                     {"recovery_rounds", rounds},
                     {"containment_radius", current_.containmentRadius},
                     {"recovered", recovered}});
    }
    records_.push_back(current_);
    topo_ = nullptr;
  }

  void onSafetyViolations(std::size_t count) {
    if (count == 0) return;
    safetyTotal_ += count;
    if (safetyViolations_ != nullptr) safetyViolations_->inc(count);
    if (events_ != nullptr) {
      events_->emit("chaos_safety_violation",
                    {{"round", current_.at}, {"count", count}});
    }
  }

  [[nodiscard]] bool windowOpen() const noexcept { return open_; }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t safetyViolations() const noexcept {
    return safetyTotal_;
  }
  [[nodiscard]] bool allRecovered() const noexcept {
    return std::all_of(records_.begin(), records_.end(),
                       [](const Record& r) { return r.recovered; });
  }
  [[nodiscard]] std::size_t maxRecoveryRounds() const noexcept {
    std::size_t worst = 0;
    for (const Record& r : records_) {
      worst = std::max(worst, r.recoveryRounds);
    }
    return worst;
  }
  [[nodiscard]] std::size_t maxContainmentRadius() const noexcept {
    std::size_t worst = 0;
    for (const Record& r : records_) {
      worst = std::max(worst, r.containmentRadius);
    }
    return worst;
  }

 private:
  // Containment distances are a multi-source BFS from the injected set,
  // expanded one layer at a time on demand. Unreachable nodes get distance
  // n (the containment cap — "the fault's effect crossed a partition"). An
  // empty injected set (loss bursts, clock drift) maps every node to
  // distance 0: those faults have no epicenter to measure from. Labels are
  // stamped with the window, so opening one costs O(|injected|), not O(n).
  void startSearch(const std::vector<graph::Vertex>& injected,
                   const graph::Graph& topo) {
    topo_ = &topo;
    noEpicenter_ = injected.empty();
    const std::size_t n = topo.order();
    if (stamp_.size() != n || ++window_ == 0) {
      stamp_.assign(n, 0);
      distance_.resize(n);
      window_ = 1;
    }
    frontier_.clear();
    depth_ = 0;
    for (const graph::Vertex v : injected) {
      if (v < n && !labelled(v)) label(v, 0);
    }
  }

  [[nodiscard]] std::size_t distanceTo(graph::Vertex v) {
    if (noEpicenter_ || v >= stamp_.size()) return 0;
    while (!labelled(v) && !frontier_.empty()) expandLayer();
    return labelled(v) ? distance_[v] : stamp_.size();
  }

  // Labels every unlabelled neighbor of the current frontier (all at
  // distance depth_) with depth_ + 1; they become the next frontier.
  void expandLayer() {
    next_.clear();
    frontier_.swap(next_);
    ++depth_;
    for (const graph::Vertex v : next_) {
      for (const graph::Vertex w : topo_->neighbors(v)) {
        if (!labelled(w)) label(w, depth_);
      }
    }
  }

  [[nodiscard]] bool labelled(graph::Vertex v) const noexcept {
    return stamp_[v] == window_;
  }

  void label(graph::Vertex v, graph::Vertex d) {
    stamp_[v] = window_;
    distance_[v] = d;
    frontier_.push_back(v);
  }

  bool open_ = false;
  Record current_;
  const graph::Graph* topo_ = nullptr;  // the open window's topology
  bool noEpicenter_ = false;
  std::vector<std::uint32_t> stamp_;    // == window_ iff distance_ is set
  std::vector<graph::Vertex> distance_;  // hops; < n fits a vertex index
  std::uint32_t window_ = 0;
  std::vector<graph::Vertex> frontier_;  // labelled at distance depth_
  std::vector<graph::Vertex> next_;
  graph::Vertex depth_ = 0;
  std::size_t maxChangedDistance_ = 0;
  std::vector<Record> records_;
  std::size_t safetyTotal_ = 0;

  telemetry::Counter* faults_ = nullptr;
  telemetry::Histogram* recoveryRounds_ = nullptr;
  telemetry::Histogram* containmentRadius_ = nullptr;
  telemetry::Counter* safetyViolations_ = nullptr;
  telemetry::EventLog* events_ = nullptr;
};

}  // namespace selfstab::chaos
