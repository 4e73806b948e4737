// Umbrella header for the telemetry subsystem.
//
// Metric names used across the repo are centralized here so the engines,
// the beacon network, the CLIs, and the docs (docs/OBSERVABILITY.md) agree
// on spelling. Everything is header-only; link selfstab_telemetry for the
// include path.
#pragma once

#include "telemetry/event_log.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/timer.hpp"

namespace selfstab::telemetry::names {

// Round executor (SyncRunner). worker_threads is its thread count at every
// count; the other worker_* instruments exist only when it runs with
// threads > 1.
inline constexpr const char* kRoundsTotal = "rounds_total";
inline constexpr const char* kMovesTotal = "moves_total";
inline constexpr const char* kRoundDuration = "round_duration_seconds";
inline constexpr const char* kSnapshotDuration =
    "round_snapshot_duration_seconds";
inline constexpr const char* kEvaluateDuration =
    "round_evaluate_duration_seconds";
inline constexpr const char* kCommitDuration =
    "round_commit_duration_seconds";
inline constexpr const char* kWorkerChunkDuration =
    "worker_chunk_duration_seconds";
inline constexpr const char* kWorkerImbalance = "worker_imbalance_ratio";
// The runner's thread count (gauge). It depends on the machine, so it lives
// in metrics, never in the event log.
inline constexpr const char* kWorkerThreads = "worker_threads";
// Rule evaluations per second over the last round's evaluate phase (gauge;
// wall-clock-derived, so it lives in metrics, never in the event log — see
// docs/OBSERVABILITY.md on reproducibility).
inline constexpr const char* kEvaluationsPerSecond =
    "evaluations_per_second";

// Work-set evaluation (SyncRunner: each round's work set vs the rest; the
// beacon simulator reuses the counters for per-interval rule evaluations vs
// dirty-skip suppressions).
inline constexpr const char* kActiveNodes = "active_nodes_total";
inline constexpr const char* kSkippedNodes = "skipped_nodes_total";
inline constexpr const char* kActivationFraction = "round_active_fraction";

// Beacon network (adhoc::NetworkSimulator).
inline constexpr const char* kBeaconsSent = "beacons_sent_total";
inline constexpr const char* kBeaconsDelivered = "beacons_delivered_total";
inline constexpr const char* kBeaconsLost = "beacons_lost_total";
inline constexpr const char* kBeaconsCollided = "beacons_collided_total";
inline constexpr const char* kNeighborExpirations =
    "neighbor_expirations_total";
inline constexpr const char* kNeighborCacheSize = "neighbor_cache_size";
// Lookahead windows the simulator ran in phases, and windows it handed to
// the per-event loop (counters; they depend on how run() is sliced, never
// on the worker count). The three gauges split the drive calls' wall time:
// geometry and per-node are seconds summed over the team's workers, serial
// is the driving thread's time outside team dispatches. worker_threads (see
// above) is the window executor's worker count.
inline constexpr const char* kSimWindows = "sim_windows_total";
inline constexpr const char* kSimEventLoopWindows =
    "sim_event_loop_windows_total";
inline constexpr const char* kSimGeometrySeconds = "sim_geometry_seconds";
inline constexpr const char* kSimNodeSeconds = "sim_node_seconds";
inline constexpr const char* kSimSerialSeconds = "sim_serial_seconds";

// Spatial-index / event-queue diagnostics (adhoc::NetworkSimulator). These
// shadow IndexStats, not NetworkStats: they are *mode-dependent* by design
// (the grid index exists to shrink them), so differential suites must not
// compare them across IndexMode/QueueMode.
inline constexpr const char* kRangeChecks = "range_checks_total";
inline constexpr const char* kGridOccupancy = "grid_cell_occupancy";
inline constexpr const char* kBroadcastCandidates = "broadcast_candidates";
inline constexpr const char* kCollisionCandidates = "collision_candidates";
inline constexpr const char* kEventQueueDepth = "event_queue_depth";

// Fault campaigns (chaos::RecoveryMonitor). recovery_rounds and
// containment_radius are histograms on the size ladder; the counters are
// cumulative over every fault window of the run.
inline constexpr const char* kChaosFaultsInjected = "chaos_faults_injected";
inline constexpr const char* kRecoveryRounds = "recovery_rounds";
inline constexpr const char* kContainmentRadius = "containment_radius";
inline constexpr const char* kSafetyViolations = "safety_violations_total";

// Memory ledger (gauges, both CLIs): bytes held at the end of the run by
// the bulk arrays. The graph's offsets, slices and labels (the CLI's Graph;
// the simulator's frozen radio graph, empty until hosts settle) with the
// slices' entry width (2 = narrow deltas, 4 = wide targets), the IDs, the
// authoritative state vector and the round executor's kernel mirror and
// topology caches (0 in the simulator, whose view kernel keeps none).
inline constexpr const char* kGraphOffsetBytes = "graph_offsets_bytes";
inline constexpr const char* kGraphSliceBytes = "graph_slices_bytes";
inline constexpr const char* kGraphSliceEntryBytes =
    "graph_slice_entry_bytes";
inline constexpr const char* kGraphLabelBytes = "graph_labels_bytes";
inline constexpr const char* kIdBytes = "ids_bytes";
inline constexpr const char* kStateBytes = "states_bytes";
inline constexpr const char* kKernelMirrorBytes = "kernel_mirror_bytes";

}  // namespace selfstab::telemetry::names
