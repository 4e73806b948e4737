// Discrete-event simulation of the paper's system model (Section 2).
//
// Each node periodically broadcasts a beacon carrying its protocol state.
// Receivers cache (sender, state, timestamp); a neighbor not heard from
// within the timeout is presumed gone and dropped (the neighbor-discovery
// protocol). Immediately before sending its own beacon — i.e. once per
// beacon interval, after it has had the chance to hear every neighbor, the
// paper's definition of a round — a node evaluates its protocol rules
// against the cached neighbor states and moves if privileged.
//
// The same Protocol objects that run under the abstract synchronous engine
// run here unchanged; the LocalView is simply built from beacon caches
// instead of a global snapshot. Radio connectivity is unit-disk over a
// Mobility model, so host movement creates and destroys links and the
// protocols must re-stabilize, which is exactly the paper's fault-tolerance
// story.
//
// Hot-path structure (NetworkConfig::index / ::queue pick the
// implementation; every mode combination is bit-identical — same RNG draw
// order, same event tie-breaking — which the differential suite in
// tests/adhoc/test_network_differential.cpp asserts):
//
//  * A broadcast is one queue event, not one per receiver. At send time the
//    sender's radio picks its receivers and the payload is captured into a
//    recycled batch slot; one Arrival event at send + propagationDelay walks
//    the ascending receiver list and applies each receiver's crash check at
//    arrival time. Per-receiver events would share that timestamp and take
//    consecutive sequence numbers, so no other event could fall between
//    them: the batch replays exactly their order.
//  * Broadcast fan-out and collision checks consult an incrementally
//    maintained SpatialGrid instead of scanning all n nodes. A node's cell
//    is refreshed at its own beacon, so a recorded position is stale by at
//    most one (jittered) beacon interval; queries widen the radius by
//    maxSpeed x staleness to cover the drift. The reference implementation's
//    exact distance test (which draws no random number) then filters the
//    unsorted candidates, and only the survivors are sorted into ascending
//    vertex order, so the per-receiver loss draws and collision checks come
//    out identical to the full scan.
//  * Collision checks only ever need nodes that transmitted within
//    collisionWindow, so each grid cell keeps a ring of recent
//    transmissions (recorded at the transmitter's exact cell at
//    transmission time, lazily pruned); the query widens by
//    maxSpeed x collisionWindow.
//  * The event queue is a CalendarQueue bucketed at 1/16 beacon interval.
//  * Mobility::position is memoized per (node, event-timestamp).
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "adhoc/event_queue.hpp"
#include "adhoc/mobility.hpp"
#include "adhoc/sim_modes.hpp"
#include "adhoc/sim_time.hpp"
#include "engine/kernel.hpp"
#include "engine/protocol.hpp"
#include "engine/schedule.hpp"
#include "graph/geometry.hpp"
#include "graph/id_order.hpp"
#include "graph/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::adhoc {

struct NetworkConfig {
  SimTime beaconInterval = 100 * kMillisecond;
  /// Each interval is multiplied by (1 + u) with u uniform in
  /// [-jitterFraction, +jitterFraction]; beacons are not phase-locked.
  double jitterFraction = 0.05;
  /// Neighbor expiry: drop j if not heard for timeoutFactor * beaconInterval.
  double timeoutFactor = 2.5;
  SimTime propagationDelay = 1 * kMillisecond;
  /// Independent per-(beacon, receiver) loss probability.
  double lossProbability = 0.0;
  /// MAC contention model: a beacon is lost at receiver j if some third
  /// node in j's radio range transmitted within this window before the
  /// sender (half-duplex carrier collision). 0 disables the model — the
  /// paper's assumption that "the data link protocol resolves any
  /// contention for the shared medium". Jittered beacon phases make
  /// persistent collisions between fixed pairs unlikely, so protocols
  /// still converge, just slower.
  SimTime collisionWindow = 0;
  /// Radio range in unit-square widths.
  double radius = 0.35;
  /// Dense: every node evaluates its rules each beacon interval. Active: a
  /// node evaluates only when *dirty* — its own state or its neighbor cache
  /// (membership or cached states) changed since its last evaluation. A
  /// deterministic rule over an unchanged view returns the same answer, so
  /// skipping it cannot change the trajectory; protocols whose decisions
  /// read more than N[v] (Protocol::readsBeyondNeighborhood) always
  /// evaluate. Beacons are broadcast
  /// either way — only the rule evaluation is elided.
  engine::Schedule schedule = engine::Schedule::Dense;
  /// Optional per-node transmit ranges overriding `radius` (empty = uniform).
  /// Heterogeneous ranges create *asymmetric* links — u hears v without v
  /// hearing u — which violates the paper's assumption that "the links
  /// between two adjacent nodes are always bidirectional". The simulator
  /// supports them precisely so tests can probe what that assumption buys
  /// (see adhoc/test_network.cpp: SMM can wedge a node into pointing at a
  /// neighbor that will never answer).
  std::vector<double> perNodeRadius;
  /// Hot-path implementation knobs; every combination is bit-identical
  /// (see the header comment). Scan/Heap are the reference modes the
  /// differential suite and the scale benchmark compare against.
  IndexMode index = IndexMode::Grid;
  QueueMode queue = QueueMode::Calendar;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument for configurations the simulator cannot
  /// honor. NetworkSimulator's constructor calls this; the CLIs call it as
  /// soon as the flags are parsed so a bad value fails with a clear message
  /// instead of a hang or an assert. NaN fails every range check below.
  void validate() const {
    const auto fail = [](const std::string& what) {
      throw std::invalid_argument("NetworkConfig: " + what);
    };
    if (beaconInterval <= 0) fail("beaconInterval must be > 0");
    if (!(jitterFraction >= 0.0 && jitterFraction < 1.0)) {
      fail("jitterFraction must be in [0, 1)");
    }
    if (!(timeoutFactor > 0.0)) fail("timeoutFactor must be > 0");
    if (propagationDelay < 0) fail("propagationDelay must be >= 0");
    if (!(lossProbability >= 0.0 && lossProbability <= 1.0)) {
      fail("lossProbability must be in [0, 1]");
    }
    if (collisionWindow < 0) fail("collisionWindow must be >= 0");
    if (!(radius > 0.0)) fail("radius must be > 0");
    for (const double r : perNodeRadius) {
      if (!(r > 0.0)) fail("perNodeRadius entries must be > 0");
    }
  }
};

struct NetworkStats {
  std::size_t beaconsSent = 0;
  std::size_t beaconsDelivered = 0;
  std::size_t beaconsLost = 0;      ///< random (fading) losses
  std::size_t beaconsCollided = 0;  ///< MAC collision losses
  std::size_t moves = 0;
  std::size_t ruleEvaluations = 0;    ///< beacon intervals that ran the rules
  std::size_t evaluationsSkipped = 0; ///< intervals suppressed (Active, clean)

  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

/// Diagnostic counters for the spatial index and its reference scan. Unlike
/// NetworkStats these are *mode-dependent by design* — the grid exists to
/// shrink rangeChecks — so equivalence suites must not compare them across
/// IndexMode values. The scale benchmark's >= 20x reduction gate reads them.
struct IndexStats {
  std::size_t rangeChecks = 0;         ///< exact distance tests executed
  std::size_t gridQueries = 0;         ///< broadcast gathers (Grid mode)
  std::size_t broadcastCandidates = 0; ///< candidates those gathers returned
  std::size_t collisionChecks = 0;     ///< collidesAt invocations
  std::size_t collisionCandidates = 0; ///< in-window transmitters tested

  friend bool operator==(const IndexStats&, const IndexStats&) = default;
};

struct QuietResult {
  SimTime endTime = 0;
  bool quiet = false;  ///< no state change for the requested window
  NetworkStats stats;
};

template <typename State>
class NetworkSimulator {
 public:
  NetworkSimulator(const engine::Protocol<State>& protocol,
                   const graph::IdAssignment& ids, Mobility& mobility,
                   NetworkConfig config)
      : protocol_(&protocol),
        ids_(&ids),
        mobility_(&mobility),
        config_(std::move(config)),
        rng_(config_.seed),
        nodes_(mobility.order()),
        lastTx_(mobility.order(), -1),
        queue_(config_.queue == QueueMode::Calendar
                   ? std::max<SimTime>(1, config_.beaconInterval / 16)
                   : 0),
        posStamp_(mobility.order(), -1),
        posPoint_(mobility.order()) {
    assert(ids.order() == mobility.order());
    config_.validate();
    if (!config_.perNodeRadius.empty() &&
        config_.perNodeRadius.size() != mobility.order()) {
      throw std::invalid_argument(
          "NetworkConfig: perNodeRadius size must match the node count");
    }
    maxRadius_ = config_.radius;
    if (!config_.perNodeRadius.empty()) {
      maxRadius_ = *std::max_element(config_.perNodeRadius.begin(),
                                     config_.perNodeRadius.end());
    }
    // A recorded position lags reality by at most one jittered beacon
    // interval (a node re-places itself at every beacon; the construction
    // placement below covers the first interval, whose phase is < one
    // interval). Collision candidates lag by at most collisionWindow. The
    // epsilon absorbs the interpolation arithmetic of Mobility::position.
    constexpr double kSlack = 1e-9;
    const double secondsPerInterval = static_cast<double>(
                                          config_.beaconInterval) /
                                      static_cast<double>(kSecond);
    broadcastSlack_ = mobility.maxSpeed() * (1.0 + config_.jitterFraction) *
                          secondsPerInterval +
                      kSlack;
    collisionSlack_ = mobility.maxSpeed() *
                          (static_cast<double>(config_.collisionWindow) /
                           static_cast<double>(kSecond)) +
                      kSlack;
    if (config_.index == IndexMode::Grid) {
      grid_ = graph::SpatialGrid(nodes_.size(), maxRadius_);
      if (config_.collisionWindow > 0) txRings_.resize(grid_.cellCount());
      for (graph::Vertex v = 0; v < nodes_.size(); ++v) {
        grid_.place(v, positionAt(v, 0));
      }
    }
    for (graph::Vertex v = 0; v < nodes_.size(); ++v) {
      nodes_[v].state = protocol.initialState(v);
      // Desynchronized start: first beacon at a random phase of one interval.
      queue_.schedule(
          static_cast<SimTime>(rng_.below(
              static_cast<std::uint64_t>(config_.beaconInterval))),
          Event{BeaconTimer{v}});
    }
  }

  /// Attaches metric/event sinks (either may be null; pass nulls to
  /// detach). Counters shadow NetworkStats exactly (a broadcast's losses,
  /// collisions and deliveries are added in one step), so a registry dump
  /// always agrees with stats(); the index/queue
  /// diagnostics shadow IndexStats the same way (and are mode-dependent,
  /// see IndexStats). The event log receives "move", "neighbor_expired",
  /// and "reboot" records keyed by simulated time — never wall clock — so
  /// logs stay reproducible.
  void attachTelemetry(telemetry::Registry* registry,
                       telemetry::EventLog* events = nullptr) {
    events_ = events;
    if (registry == nullptr) {
      metrics_ = Metrics{};
      return;
    }
    namespace names = telemetry::names;
    metrics_.beaconsSent = &registry->counter(names::kBeaconsSent);
    metrics_.beaconsDelivered = &registry->counter(names::kBeaconsDelivered);
    metrics_.beaconsLost = &registry->counter(names::kBeaconsLost);
    metrics_.beaconsCollided = &registry->counter(names::kBeaconsCollided);
    metrics_.moves = &registry->counter(names::kMovesTotal);
    metrics_.neighborExpirations =
        &registry->counter(names::kNeighborExpirations);
    metrics_.ruleEvaluations = &registry->counter(names::kActiveNodes);
    metrics_.evaluationsSkipped = &registry->counter(names::kSkippedNodes);
    metrics_.rangeChecks = &registry->counter(names::kRangeChecks);
    metrics_.cacheSize = &registry->histogram(names::kNeighborCacheSize,
                                              telemetry::sizeBuckets());
    metrics_.gridOccupancy = &registry->histogram(names::kGridOccupancy,
                                                  telemetry::sizeBuckets());
    metrics_.broadcastCandidates = &registry->histogram(
        names::kBroadcastCandidates, telemetry::sizeBuckets());
    metrics_.collisionCandidates = &registry->histogram(
        names::kCollisionCandidates, telemetry::sizeBuckets());
    metrics_.queueDepth = &registry->histogram(names::kEventQueueDepth,
                                               telemetry::depthBuckets());
    // A node's beacon-interval work (expiry sweep, rule evaluation,
    // broadcast) is its share of one paper-round; that is the latency this
    // histogram tracks in the beacon model.
    metrics_.roundDuration = &registry->histogram(
        names::kRoundDuration, telemetry::durationBuckets());
    metrics_.evaluationsPerSecond =
        &registry->gauge(names::kEvaluationsPerSecond);
  }

  /// Installs a devirtualized view kernel (core/kernels.hpp) for rule
  /// evaluation; nullptr reverts to Protocol::onRound. The simulator has no
  /// static graph to mirror, so it uses the view-level kernel tier —
  /// decisions are bit-identical by construction (kernel and protocol share
  /// the same rule code). Caller keeps ownership; the kernel must outlive
  /// the simulator or be detached first.
  void setViewKernel(const engine::ViewKernel<State>* kernel) noexcept {
    viewKernel_ = kernel;
  }

  /// Which evaluation path rule evaluation is on.
  [[nodiscard]] engine::Kernel kernel() const noexcept {
    return viewKernel_ != nullptr ? engine::Kernel::Flat
                                  : engine::Kernel::Generic;
  }

  /// Runs until simulated time `until`.
  void run(SimTime until) {
    const EvalRateScope rate(metrics_, stats_);
    while (!queue_.empty() && queue_.nextTime() <= until) {
      dispatch(queue_.pop());
    }
  }

  /// Runs until no node has changed protocol state for `quietWindow`, or
  /// until maxTime. (Quiescence in the beacon model: every node keeps
  /// evaluating its rules each interval but none is privileged.)
  /// `noQuietBefore` suppresses the quiet exit until that time — a fault
  /// campaign must not declare quiescence while events are still pending.
  /// Quiet is checked after each queue event, and a broadcast's arrival at
  /// all of its receivers is one event, so the run stops on a broadcast
  /// boundary: no arrival is ever left half-delivered.
  QuietResult runUntilQuiet(SimTime quietWindow, SimTime maxTime,
                            SimTime noQuietBefore = 0) {
    QuietResult result;
    const EvalRateScope rate(metrics_, stats_);
    while (!queue_.empty() && queue_.nextTime() <= maxTime) {
      dispatch(queue_.pop());
      if (queue_.now() >= noQuietBefore &&
          queue_.now() - lastMove_ >= quietWindow) {
        result.quiet = true;
        break;
      }
    }
    result.endTime = queue_.now();
    result.stats = stats_;
    return result;
  }

  /// Overwrites node states (fault injection). Every node is marked dirty:
  /// an Active-schedule run must re-evaluate everyone after a fault burst.
  void setStates(std::vector<State> states) {
    assert(states.size() == nodes_.size());
    for (graph::Vertex v = 0; v < nodes_.size(); ++v) {
      nodes_[v].state = std::move(states[v]);
      nodes_[v].dirty = true;
    }
    lastMove_ = queue_.now();
  }

  /// Reboots node v: protocol state back to the protocol's initial value
  /// and the neighbor cache wiped, as after a transient crash-restart. The
  /// paper's model keeps the node set fixed, so a "crash" is exactly this
  /// kind of transient fault; the protocol must absorb it.
  void rebootNode(graph::Vertex v) {
    nodes_[v].state = protocol_->initialState(v);
    nodes_[v].cache.clear();
    nodes_[v].dirty = true;
    lastMove_ = queue_.now();
    if (events_ != nullptr) {
      events_->emit("reboot", {{"t_us", queue_.now()}, {"node", v}});
    }
  }

  [[nodiscard]] std::vector<State> states() const {
    std::vector<State> out;
    out.reserve(nodes_.size());
    for (const auto& node : nodes_) out.push_back(node.state);
    return out;
  }

  /// Ground-truth *bidirectional* radio topology at the current simulation
  /// time: {u,v} is an edge iff each is within the other's transmit range
  /// (with uniform ranges this is the plain unit-disk graph). Asymmetric
  /// one-way reachability is, by the paper's model, not a link.
  [[nodiscard]] graph::Graph currentTopology() {
    const SimTime now = queue_.now();
    std::vector<graph::Point> pts(nodes_.size());
    for (graph::Vertex v = 0; v < nodes_.size(); ++v) {
      pts[v] = positionAt(v, now);
    }
    graph::Graph g(nodes_.size());
    if (config_.index == IndexMode::Scan || nodes_.size() < 256) {
      for (graph::Vertex u = 0; u < nodes_.size(); ++u) {
        for (graph::Vertex v = u + 1; v < nodes_.size(); ++v) {
          const double reach = std::min(radiusOf(u), radiusOf(v));
          if (graph::squaredDistance(pts[u], pts[v]) <= reach * reach) {
            g.addEdge(u, v);
          }
        }
      }
      return g;
    }
    // A fresh exact-position grid (the incremental one lags by a beacon
    // interval). Graph stores sorted adjacency and compares structurally,
    // so the cell-driven discovery order is unobservable.
    graph::SpatialGrid snap(nodes_.size(), maxRadius_);
    for (graph::Vertex v = 0; v < nodes_.size(); ++v) snap.place(v, pts[v]);
    std::vector<graph::Vertex> near;
    for (graph::Vertex u = 0; u < nodes_.size(); ++u) {
      near.clear();
      snap.gather(pts[u], maxRadius_, near);
      for (const graph::Vertex v : near) {
        if (v <= u) continue;
        const double reach = std::min(radiusOf(u), radiusOf(v));
        if (graph::squaredDistance(pts[u], pts[v]) <= reach * reach) {
          g.addEdge(u, v);
        }
      }
    }
    return g;
  }

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IndexStats& indexStats() const noexcept {
    return indexStats_;
  }
  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }
  [[nodiscard]] SimTime lastMoveTime() const noexcept { return lastMove_; }

  /// Number of whole beacon intervals elapsed — the paper's round count.
  [[nodiscard]] double roundsElapsed() const noexcept {
    return static_cast<double>(queue_.now()) /
           static_cast<double>(config_.beaconInterval);
  }

  // --- Fault-campaign hooks (driven by chaos::SimChaosController) -------
  //
  // chaosAttach() allocates the chaos state; every other chaos* method
  // requires it. While no fault has fired the attached simulator's
  // trajectory is bit-identical to an unattached one: the chaos checks
  // read only all-zero flag arrays, consume no RNG draws, and schedule no
  // events (the controller owns a separate Rng for fault randomness).

  /// `maxDriftFactor` widens the grid's broadcast staleness slack so a
  /// drift-slowed beacon interval keeps the gather superset sound.
  void chaosAttach(double maxDriftFactor = 1.0) {
    if (chaos_ != nullptr) return;
    chaos_ = std::make_unique<ChaosState>();
    const std::size_t n = nodes_.size();
    chaos_->crashed.assign(n, 0);
    chaos_->stuck.assign(n, 0);
    chaos_->epoch.assign(n, 0);
    chaos_->drift.assign(n, 1.0);
    chaos_->side.assign(n, 0);
    chaos_->garbled.assign(n, std::nullopt);
    if (maxDriftFactor > 1.0) broadcastSlack_ *= maxDriftFactor;
  }
  [[nodiscard]] bool chaosAttached() const noexcept {
    return chaos_ != nullptr;
  }

  /// Schedules a ChaosTick carrying `index`; the handler set via
  /// chaosSetHandler receives it when simulated time reaches `at`.
  void chaosScheduleTick(SimTime at, std::int64_t index) {
    queue_.schedule(at, Event{ChaosTick{index}});
  }
  void chaosSetHandler(std::function<void(std::int64_t)> handler) {
    chaos_->handler = std::move(handler);
  }
  /// Called after every committed protocol move (simulated time, node).
  void chaosSetMoveHook(std::function<void(SimTime, graph::Vertex)> hook) {
    chaos_->moveHook = std::move(hook);
  }

  /// Crash: the node stops transmitting (its pending beacon-timer chain is
  /// orphaned by the epoch bump) and hears nothing until it rejoins.
  /// Neighbors discover the silence through cache expiry, exactly like a
  /// real host vanishing.
  void chaosCrash(graph::Vertex v) {
    chaos_->crashed[v] = 1;
    ++chaos_->epoch[v];
  }

  /// Rejoin after a crash: fresh initial state, empty neighbor cache, and a
  /// new beacon-timer chain starting `phase` from now (the caller picks the
  /// phase from its own RNG to keep the restart desynchronized).
  void chaosRejoin(graph::Vertex v, SimTime phase) {
    chaos_->crashed[v] = 0;
    ++chaos_->epoch[v];
    nodes_[v].state = protocol_->initialState(v);
    nodes_[v].cache.clear();
    nodes_[v].dirty = true;
    lastMove_ = queue_.now();
    if (config_.index == IndexMode::Grid) {
      grid_.place(v, positionAt(v, queue_.now()));
    }
    queue_.schedule(queue_.now() + std::max<SimTime>(1, phase),
                    Event{BeaconTimer{v, chaos_->epoch[v]}});
    if (events_ != nullptr) {
      events_->emit("reboot", {{"t_us", queue_.now()}, {"node", v}});
    }
  }

  /// Partition: beacons between different sides are dropped at the radio.
  void chaosSetPartition(std::vector<std::uint8_t> side) {
    assert(side.size() == nodes_.size());
    chaos_->side = std::move(side);
    chaos_->partitionActive = true;
  }
  void chaosHealPartition() { chaos_->partitionActive = false; }

  /// Loss bursts: swap the per-receiver loss probability (restore with the
  /// original value). The loss draw consumes one RNG value regardless of p,
  /// so changing it never desynchronizes the Grid/Scan draw order.
  void chaosSetLossProbability(double p) { config_.lossProbability = p; }
  [[nodiscard]] double lossProbability() const noexcept {
    return config_.lossProbability;
  }

  /// Clock drift: this node's beacon interval is multiplied by `factor`
  /// (1.0 restores a true clock).
  void chaosSetDrift(graph::Vertex v, double factor) {
    chaos_->drift[v] = factor;
  }

  /// Stuck: the node keeps beaconing its current state but never evaluates
  /// its rules — a frozen program with a live radio.
  void chaosSetStuck(graph::Vertex v, bool stuck) {
    chaos_->stuck[v] = stuck ? 1 : 0;
    if (!stuck) nodes_[v].dirty = true;  // resume with a forced evaluation
  }

  /// Garble: the node's *next* beacon carries `payload` instead of its real
  /// state (one corrupted transmission, then the radio is honest again).
  void chaosGarble(graph::Vertex v, State payload) {
    chaos_->garbled[v] = std::move(payload);
  }

  /// Overwrites one node's state in place (targeted corruption).
  void setNodeState(graph::Vertex v, State state) {
    nodes_[v].state = std::move(state);
    nodes_[v].dirty = true;
    lastMove_ = queue_.now();
  }

  [[nodiscard]] bool chaosCrashed(graph::Vertex v) const noexcept {
    return chaos_ != nullptr && chaos_->crashed[v] != 0;
  }
  [[nodiscard]] bool chaosStuck(graph::Vertex v) const noexcept {
    return chaos_ != nullptr && chaos_->stuck[v] != 0;
  }

 private:
  struct BeaconTimer {
    graph::Vertex node;
    /// Crash/rejoin bump the node's chaos epoch; a timer whose epoch no
    /// longer matches belongs to an orphaned chain and is dropped. Always 0
    /// when no chaos state is attached.
    std::uint32_t epoch = 0;
  };
  /// One broadcast's arrival at all of its receivers; `slot` indexes the
  /// Batch holding the payload and the receiver list.
  struct Arrival {
    graph::Vertex from;
    std::uint32_t slot;
  };
  /// Fault-campaign timer; `index` identifies the FaultEvent to apply.
  struct ChaosTick {
    std::int64_t index;
  };
  using Event = std::variant<BeaconTimer, Arrival, ChaosTick>;

  /// Payload as sent (a garbled one included) and the ascending receivers
  /// that passed the range, chaos, loss and collision tests. Slots are
  /// recycled once their arrival event has run.
  struct Batch {
    State payload{};
    std::vector<graph::Vertex> receivers;
  };

  struct CacheEntry {
    graph::Vertex from;
    SimTime heardAt;
    State state;
  };

  struct Node {
    State state{};
    // Sorted by sender vertex so LocalViews enumerate neighbors in
    // increasing vertex order, matching the abstract engine. Flat storage:
    // one allocation, contiguous iteration for the expiry sweep and the
    // view build.
    std::vector<CacheEntry> cache;
    // Active schedule: true iff the node's view (own state, cache
    // membership, or a cached neighbor state) changed since its last rule
    // evaluation. Starts dirty so every node evaluates at least once.
    bool dirty = true;
  };

  struct TxRecord {
    SimTime at;
    graph::Vertex node;
  };

  void dispatch(Event event) {
    if (auto* timer = std::get_if<BeaconTimer>(&event)) {
      onBeaconTimer(timer->node, timer->epoch);
    } else if (auto* tick = std::get_if<ChaosTick>(&event)) {
      if (chaos_ != nullptr && chaos_->handler) chaos_->handler(tick->index);
    } else {
      onArrival(std::get<Arrival>(event));
    }
  }

  void onBeaconTimer(graph::Vertex v, std::uint32_t epoch) {
    if (chaos_ != nullptr && epoch != chaos_->epoch[v]) return;  // orphaned
    const telemetry::ScopedTimer roundTimer(metrics_.roundDuration);
    const SimTime now = queue_.now();
    Node& node = nodes_[v];

    // Neighbor discovery: expire links whose beacons stopped arriving. The
    // cache compacts in place; entries stay sorted by sender, so expiry
    // events fire in ascending neighbor order.
    const auto timeout = static_cast<SimTime>(
        config_.timeoutFactor * static_cast<double>(config_.beaconInterval));
    std::size_t keep = 0;
    for (std::size_t i = 0; i < node.cache.size(); ++i) {
      CacheEntry& entry = node.cache[i];
      if (now - entry.heardAt > timeout) {
        if (metrics_.neighborExpirations != nullptr) {
          metrics_.neighborExpirations->inc();
        }
        if (events_ != nullptr) {
          events_->emit(
              "neighbor_expired",
              {{"t_us", now}, {"node", v}, {"neighbor", entry.from}});
        }
        node.dirty = true;  // view shrank: re-evaluate
      } else {
        if (keep != i) node.cache[keep] = std::move(entry);
        ++keep;
      }
    }
    node.cache.erase(node.cache.begin() + static_cast<std::ptrdiff_t>(keep),
                     node.cache.end());
    if (metrics_.cacheSize != nullptr) {
      metrics_.cacheSize->observe(static_cast<double>(node.cache.size()));
    }

    // Act on the beacons gathered this round (the paper: a node takes action
    // after receiving beacon messages from all its neighbors). Under the
    // Active schedule a clean node skips the evaluation: its view is
    // unchanged since the last (disabled) evaluation, so a deterministic
    // rule would return the same nullopt.
    const bool stuckNode = chaos_ != nullptr && chaos_->stuck[v] != 0;
    const bool evaluate =
        !stuckNode && (config_.schedule != engine::Schedule::Active ||
                       protocol_->readsBeyondNeighborhood() || node.dirty);
    if (evaluate) {
      ++stats_.ruleEvaluations;
      if (metrics_.ruleEvaluations != nullptr) metrics_.ruleEvaluations->inc();
      node.dirty = false;
      neighborBuffer_.clear();
      for (const CacheEntry& entry : node.cache) {
        neighborBuffer_.push_back(engine::NeighborRef<State>{
            entry.from, ids_->idOf(entry.from), &entry.state});
      }
      engine::LocalView<State> view;
      view.self = v;
      view.selfId = ids_->idOf(v);
      view.selfState = &node.state;
      view.neighbors = neighborBuffer_;
      view.roundKey = hashCombine(config_.seed,
                                  static_cast<std::uint64_t>(
                                      now / config_.beaconInterval));
      if (auto next = viewKernel_ != nullptr ? viewKernel_->evaluateView(view)
                                             : protocol_->onRound(view)) {
        node.state = std::move(*next);
        node.dirty = true;  // own state is part of the view
        ++stats_.moves;
        if (metrics_.moves != nullptr) metrics_.moves->inc();
        if (events_ != nullptr) {
          events_->emit("move", {{"t_us", now}, {"node", v}});
        }
        lastMove_ = now;
        if (chaos_ != nullptr && chaos_->moveHook) chaos_->moveHook(now, v);
      }
    } else {
      ++stats_.evaluationsSkipped;
      if (metrics_.evaluationsSkipped != nullptr) {
        metrics_.evaluationsSkipped->inc();
      }
    }

    // Broadcast the (possibly updated) state to everyone in the *sender's*
    // transmit range (reception is governed by the transmitter's power).
    // First the draw-free filters — chaos drops and the exact distance test —
    // over the unsorted candidates; then the survivors, in ascending vertex
    // order, take the loss draw and the collision check. Both index modes
    // end up with the same ascending in-range list, so RNG draws come out
    // identical; the grid merely prunes receivers that cannot be in range.
    const graph::Point me = positionAt(v, now);
    const double r2 = radiusOf(v) * radiusOf(v);
    std::size_t rangeChecks = 0;
    const auto inRange = [&](graph::Vertex u) {
      if (u == v) return false;
      if (chaos_ != nullptr) {
        // Crashed receivers hear nothing; a partition cuts cross-side
        // links. Neither test consumes a draw or counts as a range check.
        if (chaos_->crashed[u] != 0) return false;
        if (chaos_->partitionActive && chaos_->side[u] != chaos_->side[v]) {
          return false;
        }
      }
      ++rangeChecks;
      return graph::squaredDistance(me, positionAt(u, now)) <= r2;
    };
    if (config_.index == IndexMode::Grid) {
      grid_.place(v, me);
      candidates_.clear();
      grid_.gather(me, radiusOf(v) + broadcastSlack_, candidates_);
      ++indexStats_.gridQueries;
      indexStats_.broadcastCandidates += candidates_.size();
      if (metrics_.broadcastCandidates != nullptr) {
        metrics_.broadcastCandidates->observe(
            static_cast<double>(candidates_.size()));
      }
      if (metrics_.gridOccupancy != nullptr) {
        metrics_.gridOccupancy->observe(static_cast<double>(
            grid_.cellMembers(grid_.cellOf(me)).size()));
      }
      std::erase_if(candidates_, [&](graph::Vertex u) { return !inRange(u); });
      std::sort(candidates_.begin(), candidates_.end());
    } else {
      candidates_.clear();
      for (graph::Vertex u = 0; u < nodes_.size(); ++u) {
        if (inRange(u)) candidates_.push_back(u);
      }
    }
    countBatch(indexStats_.rangeChecks, metrics_.rangeChecks, rangeChecks);
    std::size_t lost = 0;
    std::size_t collided = 0;
    std::size_t receivers = 0;
    for (const graph::Vertex u : candidates_) {
      if (rng_.chance(config_.lossProbability)) {
        ++lost;
      } else if (config_.collisionWindow > 0 &&
                 collidesAt(u, v, positionAt(u, now), now)) {
        ++collided;
      } else {
        candidates_[receivers++] = u;
      }
    }
    candidates_.resize(receivers);
    countBatch(stats_.beaconsLost, metrics_.beaconsLost, lost);
    countBatch(stats_.beaconsCollided, metrics_.beaconsCollided, collided);
    if (!candidates_.empty()) {
      // One arrival event for the whole broadcast. The payload is captured
      // now, so a garble reset or a state change before arrival is unseen.
      const std::uint32_t slot = acquireBatch();
      Batch& batch = batches_[slot];
      batch.payload = (chaos_ != nullptr && chaos_->garbled[v].has_value())
                          ? *chaos_->garbled[v]
                          : node.state;
      batch.receivers.assign(candidates_.begin(), candidates_.end());
      queue_.schedule(now + config_.propagationDelay, Event{Arrival{v, slot}});
    }
    if (config_.index == IndexMode::Grid && config_.collisionWindow > 0) {
      auto& ring = txRings_[grid_.cellOf(me)];
      pruneRing(ring, now);
      ring.push_back(TxRecord{now, v});
    }
    lastTx_[v] = now;
    ++stats_.beaconsSent;
    if (metrics_.beaconsSent != nullptr) metrics_.beaconsSent->inc();
    if (chaos_ != nullptr) chaos_->garbled[v].reset();  // one beacon only

    // Next beacon with jitter (and any chaos clock drift; drift 1.0
    // multiplies through exactly, keeping the undrifted interval
    // bit-identical).
    const double jitter =
        rng_.real(-config_.jitterFraction, config_.jitterFraction);
    const double drift = chaos_ != nullptr ? chaos_->drift[v] : 1.0;
    const auto interval = std::max<SimTime>(
        1, static_cast<SimTime>(
               (1.0 + jitter) * drift *
               static_cast<double>(config_.beaconInterval)));
    queue_.schedule(now + interval, Event{BeaconTimer{v, epoch}});
    if (metrics_.queueDepth != nullptr) {
      metrics_.queueDepth->observe(static_cast<double>(queue_.size()));
    }
  }

  /// Delivers one broadcast to its receivers, in ascending order. A
  /// receiver that crashed after the send hears nothing; the others are
  /// unaffected. The slot goes back to the free list afterwards.
  void onArrival(const Arrival& arrival) {
    const Batch& batch = batches_[arrival.slot];
    const SimTime now = queue_.now();
    std::size_t delivered = 0;
    for (const graph::Vertex to : batch.receivers) {
      if (chaos_ != nullptr && chaos_->crashed[to] != 0) continue;
      Node& node = nodes_[to];
      const auto it = std::lower_bound(
          node.cache.begin(), node.cache.end(), arrival.from,
          [](const CacheEntry& e, graph::Vertex f) { return e.from < f; });
      if (it == node.cache.end() || it->from != arrival.from) {
        node.cache.insert(it, CacheEntry{arrival.from, now, batch.payload});
        node.dirty = true;  // new neighbor appeared in the view
      } else {
        // Refresh heardAt in place; a changed payload is copied in and
        // dirties the view, an unchanged one costs no copy at all.
        if (!(it->state == batch.payload)) {
          it->state = batch.payload;
          node.dirty = true;
        }
        it->heardAt = now;
      }
      ++delivered;
    }
    countBatch(stats_.beaconsDelivered, metrics_.beaconsDelivered, delivered);
    freeBatches_.push_back(arrival.slot);
  }

  [[nodiscard]] std::uint32_t acquireBatch() {
    if (freeBatches_.empty()) {
      batches_.emplace_back();
      return static_cast<std::uint32_t>(batches_.size() - 1);
    }
    const std::uint32_t slot = freeBatches_.back();
    freeBatches_.pop_back();
    return slot;
  }

  /// Adds one broadcast's worth to a stats field and its shadow counter.
  static void countBatch(std::size_t& stat, telemetry::Counter* counter,
                         std::size_t count) {
    stat += count;
    if (counter != nullptr && count > 0) counter->inc(count);
  }

  /// MAC collision check for a beacon sent by `sender` at `now` towards the
  /// receiver at `receiverPos`: lost if any third node in the receiver's
  /// range transmitted within the collision window. (Half-duplex model:
  /// only transmissions *before* the current one are checked; the jittered
  /// schedule breaks symmetric persistent collisions.) Grid mode walks only
  /// the per-cell recent-transmitter rings around the receiver: an
  /// in-window transmitter recorded its last transmission at its exact cell
  /// at that moment, so widening the query disk by collisionSlack_ covers
  /// any drift since. Duplicate ring entries (a node beaconing twice inside
  /// the window) merely repeat the same existence test.
  [[nodiscard]] bool collidesAt(graph::Vertex receiver, graph::Vertex sender,
                                const graph::Point& receiverPos,
                                SimTime now) {
    ++indexStats_.collisionChecks;
    bool hit = false;
    std::size_t candidates = 0;
    const auto testTransmitter = [&](graph::Vertex k) {
      if (k == sender || k == receiver) return;
      if (lastTx_[k] < 0 || now - lastTx_[k] > config_.collisionWindow) {
        return;
      }
      ++candidates;
      ++indexStats_.rangeChecks;
      if (metrics_.rangeChecks != nullptr) metrics_.rangeChecks->inc();
      const graph::Point kp = positionAt(k, now);
      const double rk = radiusOf(k);
      if (graph::squaredDistance(kp, receiverPos) <= rk * rk) hit = true;
    };
    if (config_.index == IndexMode::Grid) {
      grid_.forEachCellIntersecting(
          receiverPos, maxRadius_ + collisionSlack_, [&](std::size_t cell) {
            if (hit) return;
            auto& ring = txRings_[cell];
            pruneRing(ring, now);
            for (const TxRecord& rec : ring) {
              testTransmitter(rec.node);
              if (hit) return;
            }
          });
    } else {
      for (graph::Vertex k = 0; k < nodes_.size() && !hit; ++k) {
        testTransmitter(k);
      }
    }
    indexStats_.collisionCandidates += candidates;
    if (metrics_.collisionCandidates != nullptr) {
      metrics_.collisionCandidates->observe(static_cast<double>(candidates));
    }
    return hit;
  }

  /// Drops the stale prefix of a cell's transmitter ring (entries are
  /// appended in transmission order, so stale ones are contiguous).
  void pruneRing(std::vector<TxRecord>& ring, SimTime now) {
    std::size_t drop = 0;
    while (drop < ring.size() &&
           now - ring[drop].at > config_.collisionWindow) {
      ++drop;
    }
    if (drop > 0) {
      ring.erase(ring.begin(), ring.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }

  /// Mobility::position memoized per (node, event timestamp): one beacon
  /// touches a receiver several times (broadcast test + collision checks),
  /// and position(v, t) is pure in (v, t), so a same-timestamp replay is
  /// free.
  [[nodiscard]] graph::Point positionAt(graph::Vertex v, SimTime t) {
    if (posStamp_[v] == t) return posPoint_[v];
    const graph::Point p = mobility_->position(v, t);
    posStamp_[v] = t;
    posPoint_[v] = p;
    return p;
  }

  [[nodiscard]] double radiusOf(graph::Vertex v) const noexcept {
    return config_.perNodeRadius.empty() ? config_.radius
                                         : config_.perNodeRadius[v];
  }

  /// Resolved registry endpoints; all null when telemetry is disabled, in
  /// which case the simulator performs no clock reads or atomic writes.
  struct Metrics {
    telemetry::Counter* beaconsSent = nullptr;
    telemetry::Counter* beaconsDelivered = nullptr;
    telemetry::Counter* beaconsLost = nullptr;
    telemetry::Counter* beaconsCollided = nullptr;
    telemetry::Counter* moves = nullptr;
    telemetry::Counter* neighborExpirations = nullptr;
    telemetry::Counter* ruleEvaluations = nullptr;
    telemetry::Counter* evaluationsSkipped = nullptr;
    telemetry::Counter* rangeChecks = nullptr;
    telemetry::Histogram* cacheSize = nullptr;
    telemetry::Histogram* gridOccupancy = nullptr;
    telemetry::Histogram* broadcastCandidates = nullptr;
    telemetry::Histogram* collisionCandidates = nullptr;
    telemetry::Histogram* queueDepth = nullptr;
    telemetry::Histogram* roundDuration = nullptr;
    telemetry::Gauge* evaluationsPerSecond = nullptr;
  };

  // Times one drive call (run / runUntilQuiet) into the
  // evaluations_per_second gauge, mirroring the round executors'
  // EvalStopwatch. Wall-clock rates are metrics-only: reports and the
  // event log stay byte-reproducible across kernels and index/queue
  // modes. No registry attached -> no clock reads at all.
  class EvalRateScope {
   public:
    EvalRateScope(const Metrics& metrics, const NetworkStats& stats)
        : metrics_(metrics), stats_(stats) {
      if (metrics_.evaluationsPerSecond != nullptr) {
        startEvals_ = stats_.ruleEvaluations;
        start_ = std::chrono::steady_clock::now();
      }
    }
    EvalRateScope(const EvalRateScope&) = delete;
    EvalRateScope& operator=(const EvalRateScope&) = delete;
    ~EvalRateScope() {
      if (metrics_.evaluationsPerSecond == nullptr) return;
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count();
      const std::size_t evaluated = stats_.ruleEvaluations - startEvals_;
      if (seconds > 0.0 && evaluated > 0) {
        metrics_.evaluationsPerSecond->set(static_cast<double>(evaluated) /
                                           seconds);
      }
    }

   private:
    const Metrics& metrics_;
    const NetworkStats& stats_;
    std::size_t startEvals_ = 0;
    std::chrono::steady_clock::time_point start_;
  };

  /// Fault-campaign state. Allocated only by chaosAttach(): a null pointer
  /// keeps every hot-path chaos check to one predicted-not-taken branch,
  /// and an attached-but-quiet simulator (empty plan) reads only all-zero
  /// flags — no RNG stream, event, or schedule is perturbed until a fault
  /// actually fires. Fault randomness (victim choice, corrupted states,
  /// rejoin phases) lives in the controller's own Rng, never in rng_.
  struct ChaosState {
    std::function<void(std::int64_t)> handler;
    std::function<void(SimTime, graph::Vertex)> moveHook;
    std::vector<std::uint8_t> crashed;
    std::vector<std::uint8_t> stuck;
    std::vector<std::uint32_t> epoch;
    std::vector<double> drift;
    std::vector<std::uint8_t> side;
    std::vector<std::optional<State>> garbled;
    bool partitionActive = false;
  };

  const engine::Protocol<State>* protocol_;
  const engine::ViewKernel<State>* viewKernel_ = nullptr;
  const graph::IdAssignment* ids_;
  Mobility* mobility_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<SimTime> lastTx_;
  CalendarQueue<Event> queue_;
  std::vector<SimTime> posStamp_;      ///< timestamp posPoint_[v] is valid for
  std::vector<graph::Point> posPoint_;
  graph::SpatialGrid grid_;
  std::vector<std::vector<TxRecord>> txRings_;  ///< per grid cell
  std::vector<graph::Vertex> candidates_;       ///< reused receiver buffer
  std::vector<Batch> batches_;                  ///< broadcasts in flight
  std::vector<std::uint32_t> freeBatches_;      ///< recycled batches_ slots
  double maxRadius_ = 0.0;
  double broadcastSlack_ = 0.0;
  double collisionSlack_ = 0.0;
  NetworkStats stats_;
  IndexStats indexStats_;
  Metrics metrics_;
  telemetry::EventLog* events_ = nullptr;
  SimTime lastMove_ = 0;
  std::vector<engine::NeighborRef<State>> neighborBuffer_;
  std::unique_ptr<ChaosState> chaos_;
};

}  // namespace selfstab::adhoc
