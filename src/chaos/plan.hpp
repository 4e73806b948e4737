// Declarative fault campaigns: what goes wrong, to whom, and when.
//
// The paper's claim is convergence from *arbitrary* transient faults; a
// FaultPlan makes the adversary explicit and reproducible. A plan is an
// ordered list of timed FaultEvents — state corruption, crash/rejoin churn,
// network partitions, garbled beacon payloads, loss bursts, per-node clock
// drift, and stuck (Byzantine-lite, frozen-state) nodes — indexed by *round*
// (the paper's time unit; the beacon simulator maps round r to simulated
// time r x beaconInterval). Plans come from a small JSON file or from the
// built-in campaign templates (churn, rolling-partition, crash-storm), which
// are pure functions of (seed, n) so the same campaign replays bit-identical
// anywhere.
//
// The plan layer is engine-agnostic: chaos/campaign.hpp drives the abstract
// round executor (SyncRunner) and chaos/injector.hpp drives
// adhoc::NetworkSimulator from the same FaultPlan. Faults that only exist in
// the beacon model (loss_burst, clock_drift) are logged no-ops under the
// abstract engine; garble degrades to a one-node corruption there (the
// abstract model has no payloads to garble).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace selfstab::chaos {

class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  Corrupt,        ///< resample states: explicit `nodes` or per-node `fraction`
  Crash,          ///< `node` leaves: timers die, links drop, caches age out
  Rejoin,         ///< crashed `node` returns with a fresh initial state
  PartitionCut,   ///< mask links between `nodes` (side A) and the rest
  PartitionHeal,  ///< lift the partition mask
  Garble,         ///< `node`'s next beacon carries a corrupted state snapshot
  LossBurst,      ///< lossProbability := `p` for `duration` rounds
  ClockDrift,     ///< `node`'s beacon interval is scaled by `factor`
  Stuck,          ///< `node` stops evaluating rules but keeps beaconing its
                  ///< frozen state (Byzantine-lite; protocols route around it)
  Release,        ///< stuck `node` resumes evaluating its rules
};

[[nodiscard]] std::string_view toString(FaultKind kind) noexcept;
/// Parses the JSON spelling ("corrupt", "partition_cut", ...); throws
/// PlanError on an unknown kind.
[[nodiscard]] FaultKind faultKindFromString(std::string_view s);

/// One timed fault. Only the fields its kind reads are meaningful; the rest
/// keep their defaults.
struct FaultEvent {
  std::int64_t at = 0;  ///< round index the fault fires at
  FaultKind kind = FaultKind::Corrupt;
  /// Corrupt: explicit victims (empty = sample by `fraction`).
  /// PartitionCut: side-A membership; everyone else is side B.
  std::vector<graph::Vertex> nodes;
  graph::Vertex node = graph::kNoVertex;  ///< single-node kinds
  double fraction = 0.3;                  ///< Corrupt without explicit nodes
  double p = 0.5;                         ///< LossBurst probability
  std::int64_t duration = 5;              ///< LossBurst length in rounds
  double factor = 1.0;                    ///< ClockDrift interval multiplier

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

struct FaultPlan {
  std::vector<FaultEvent> events;  ///< non-decreasing `at` (validate checks)

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// Round index after which the plan is fully played out, including the
  /// expiry of the last loss burst. -1 for an empty plan.
  [[nodiscard]] std::int64_t lastEventRound() const noexcept;

  /// Largest clock-drift factor any event installs (>= 1.0). The beacon
  /// simulator widens its spatial-index staleness slack by this before the
  /// campaign starts, so grid gathers stay supersets of the truth.
  [[nodiscard]] double maxDriftFactor() const noexcept;
};

/// Structural validation against an n-node system: events sorted by `at`,
/// vertices in range, probabilities/fractions in [0,1], positive durations
/// and factors, rejoin only of crashed nodes, release only of stuck nodes,
/// at most one partition active at a time. Throws PlanError.
void validatePlan(const FaultPlan& plan, std::size_t n);

/// Parses the plan JSON (see docs/ROBUSTNESS.md for the schema):
///   {"events":[{"at":4,"kind":"corrupt","fraction":0.3},
///              {"at":40,"kind":"crash","node":2}, ...]}
/// Throws PlanError with a position-annotated message on malformed input.
/// The result is *not* validated against a node count; call validatePlan.
[[nodiscard]] FaultPlan parsePlanJson(std::istream& in);
[[nodiscard]] FaultPlan parsePlanFile(const std::string& path);

/// True if `name` names a built-in campaign template.
[[nodiscard]] bool isCampaignTemplate(std::string_view name) noexcept;

/// Builds a built-in campaign for an n-node system. Deterministic in
/// (name, seed, n). Consecutive events are spaced 2n+8 rounds apart so the
/// paper-bound recovery window (2n+1 for SMM, n for SIS) fits between any
/// two faults, and every template ends clean: crashes rejoined, partitions
/// healed, stuck nodes released, drift factors restored to 1.0.
///   churn             corruption, crash/rejoin, loss burst, clock drift,
///                     stuck/release, garble — one of everything
///   crash-storm       a wave of crashes, then rejoins, then a corruption
///   rolling-partition three different cuts, each healed before the next
/// Throws PlanError on an unknown name or n == 0.
[[nodiscard]] FaultPlan makeCampaign(std::string_view name,
                                     std::uint64_t seed, std::size_t n);

/// Renumbers a plan's vertices, given in g's external numbering (the one
/// users and templates see), to g's own; a no-op for an unlabelled graph.
void toInternalFrame(FaultPlan& plan, const graph::Graph& g);

/// Resolves a --chaos spec: "<template>:<seed>" (e.g. "churn:42") builds the
/// named campaign; anything else is read as a JSON plan file. The result is
/// validated against n either way.
[[nodiscard]] FaultPlan parseChaosSpec(const std::string& spec,
                                       std::size_t n);

}  // namespace selfstab::chaos
