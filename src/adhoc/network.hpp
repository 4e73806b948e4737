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
// Draws. The first-beacon phase, each beacon's jitter and each
// (beacon, receiver) loss are keyed draws: hashes of (seed, purpose,
// sender, send time, receiver), not the next numbers of a stream. No draw
// depends on the order events or receivers are visited in, so the loss
// draws run with the geometry, on the team.
//
// Hot-path structure (NetworkConfig::index / ::queue pick the
// implementation; every mode combination is bit-identical — same draws,
// same event tie-breaking — which the differential suite in
// tests/adhoc/test_network_differential.cpp asserts):
//
//  * A broadcast is one arrival, not one event per receiver, and arrivals
//    never enter the event queue. At send time the sender's radio picks its
//    receivers, and the payload and the ascending receiver list go into an
//    entry of the arrival lane (a FifoLane of recycled slots) keyed
//    (send + propagationDelay, seq), the seq taken from the queue's one
//    counter. Every arrival is due a fixed delay after its send, and sends
//    run in time order, so the lane is sorted by construction, and merging
//    it with the queue by (at, seq) pops exactly what one queue holding
//    both would. The arrival walks its receivers and applies each one's
//    crash check at arrival time. Per-receiver events would share that
//    timestamp and take consecutive sequence numbers, so no other event
//    could fall between them: the lane entry replays exactly their order.
//  * Broadcast fan-out and collision checks consult an incrementally
//    maintained SpatialGrid instead of scanning all n nodes. The exact
//    distance test and the keyed loss draw then filter the unsorted
//    candidates, and only the survivors are sorted into ascending vertex
//    order, so the receiver list and the collision checks come out
//    identical to the full scan. See "Grid staleness" below for the slack.
//  * Once no host can move (Mobility::settleTime()), the grid is done: the
//    first window at or after that time builds the who-hears-whom graph
//    once, as graph::unitDiskGraph of the exact positions over the largest
//    radius, and from then on a broadcast's candidates are the sender's
//    ascending slice of it (no gather, no sort), placements stop, and
//    currentTopology() reads it. The slice holds exactly the hosts the
//    exact test would keep: the same squaredDistance <= r^2 on the same
//    points, which no later query can change.
//  * Collision checks only ever need nodes that transmitted within
//    collisionWindow, so each grid cell keeps a ring of recent
//    transmissions (recorded at the transmitter's exact cell at
//    transmission time, lazily pruned); the query widens by
//    maxSpeed x collisionWindow.
//  * The event queue (beacon timers and chaos ticks) is a CalendarQueue
//    whose buckets are one lookahead window wide, enough of them to cover
//    one jittered, drifted beacon interval: a window drains whole buckets,
//    each sorted once when the cursor reaches it (1/16 interval with no
//    delay).
//
// Lookahead windows (docs/MODEL.md, docs/PERFORMANCE.md). A beacon reaches
// its receivers exactly propagationDelay D after it is sent, and a node's
// next beacon is at least (1 - jitter) x drift x beaconInterval >= D away.
// So with time cut into aligned windows [kD, (k+1)D), every event of a
// window is already queued when the window opens, and nothing the window
// does can schedule into it (conservative parallel simulation, Chandy &
// Misra 1979). run() and runUntilQuiet() therefore execute a window in
// three phases that reproduce the per-event order bit for bit:
//   (A) geometry, on the team: each beacon's ascending receiver list, a
//       pure function of positions, radii, chaos masks and the keyed loss
//       draws, and its index counters and histogram samples (per worker);
//   (B) serial, in event order, only what needs that order: collision
//       checks, lane appends and timer schedules (with the keyed jitter);
//       the window's grid placements are queued in event order beside it;
//   (C) per node, on the team: each node's own events in (time, seq)
//       order — arrivals into its cache, expiry, rule evaluation, payload
//       capture into its lane entry — followed by a serial pass that emits
//       move / neighbor_expired records, move hooks, stats and counters in
//       event order.
// Phase C of one window runs in the same team dispatch as phase A of the
// next. A ChaosTick or `until` ends a window early (the tick runs alone,
// serially). The per-event loop (dispatchNext()) remains the reference
// order: it runs every window when propagationDelay is 0 or the lookahead
// bound fails, runUntilQuiet's window in which the quiet test could fire,
// and the whole run for a simulator built with kPerEventLoop workers. Both
// orders merge the lane with the queue and call the same handlers (locate
// / broadcast / expireAndEvaluate / deliver / finish).
//
// Grid staleness. With D > 0 a beacon's grid placement is deferred to the
// start of the next aligned window that holds an event, so a window's
// gathers read a grid that no event inside the window changes: the same
// grid at every worker count and every run() slicing. A recorded position
// then lags by at most one jittered (drifted) beacon interval plus D, and
// the gather widens the radius by maxSpeed x that. With D = 0 a beacon
// places itself before its own gather. Staleness ends with the frozen
// graph: it is built from exact positions, not from the grid's records
// (a crashed host sends no beacons, so its record can lag by more than the
// slack; a list read off the grid would miss it once it rejoins).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
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
#include "graph/sort_neighbors.hpp"
#include "parallel/spin_team.hpp"
#include "parallel/workers.hpp"
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
/// Within one mode they do not depend on the worker count or on how run()
/// is sliced.
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

/// Worker counts for NetworkSimulator's constructor. kAutoWorkers (the
/// default) sizes the window executor as parallel::workersFor(expected
/// beacons per window, kBeaconWindowGrain); kPerEventLoop runs every event
/// through the reference per-event loop (the test oracle).
inline constexpr std::size_t kAutoWorkers =
    std::numeric_limits<std::size_t>::max();
inline constexpr std::size_t kPerEventLoop = 0;

/// Expected beacons per lookahead window that one extra worker needs before
/// it pays for its share of the dispatch (measured; docs/PERFORMANCE.md).
inline constexpr std::size_t kBeaconWindowGrain = 6;

template <typename State>
class NetworkSimulator {
 public:
  /// `workers`: see kAutoWorkers / kPerEventLoop; any other value is the
  /// window executor's worker count (1 runs its phases inline). Every
  /// choice gives the same trajectory, stats, event log and IndexStats.
  NetworkSimulator(const engine::Protocol<State>& protocol,
                   const graph::IdAssignment& ids, Mobility& mobility,
                   NetworkConfig config, std::size_t workers = kAutoWorkers)
      : protocol_(&protocol),
        ids_(&ids),
        mobility_(&mobility),
        config_(std::move(config)),
        jitterKey_(hashCombine(config_.seed, kJitterDraw)),
        lossKey_(hashCombine(config_.seed, kLossDraw)),
        nodes_(mobility.order()),
        lastTx_(mobility.order(), -1),
        settle_(mobility.settleTime()) {
    assert(ids.order() == mobility.order());
    config_.validate();
    if (config_.queue == QueueMode::Calendar) {  // else the one heap
      const auto [width, count] = wheelShape(config_, 1.0);
      queue_ = CalendarQueue<Event>(width, count);
    }
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
    const std::size_t n = nodes_.size();
    if (workers == kAutoWorkers) {
      const auto perWindow = static_cast<std::size_t>(
          static_cast<double>(n) *
          static_cast<double>(config_.propagationDelay) /
          static_cast<double>(config_.beaconInterval));
      workers = parallel::workersFor(perWindow, kBeaconWindowGrain);
    }
    perEventOnly_ = workers == kPerEventLoop;
    workers_ = std::max<std::size_t>(workers, 1);
    workerSlots_.resize(workers_);
    // Grid staleness (header comment): one jittered interval plus one
    // window, and collision candidates lag by at most collisionWindow. The
    // epsilon absorbs the interpolation arithmetic of Mobility::position.
    constexpr double kSlack = 1e-9;
    const auto seconds = [](SimTime t) {
      return static_cast<double>(t) / static_cast<double>(kSecond);
    };
    broadcastSlack_ =
        mobility.maxSpeed() *
            ((1.0 + config_.jitterFraction) * seconds(config_.beaconInterval) +
             seconds(config_.propagationDelay)) +
        kSlack;
    collisionSlack_ =
        mobility.maxSpeed() * seconds(config_.collisionWindow) + kSlack;
    if (config_.index == IndexMode::Grid) {
      grid_ = graph::SpatialGrid(n, maxRadius_);
      if (config_.collisionWindow > 0) txRings_.resize(grid_.cellCount());
      for (graph::Vertex v = 0; v < n; ++v) {
        grid_.place(v, mobility.position(v, 0));
      }
    }
    const std::uint64_t phaseKey = hashCombine(config_.seed, kPhaseDraw);
    for (graph::Vertex v = 0; v < n; ++v) {
      nodes_[v].state = protocol.initialState(v);
      // Desynchronized start: first beacon at a random phase of one interval.
      queue_.schedule(
          static_cast<SimTime>(Rng(hashCombine(phaseKey, v))
                                   .below(static_cast<std::uint64_t>(
                                       config_.beaconInterval))),
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
    // histogram tracks in the beacon model. The window executor times the
    // node's per-node phase (expiry + evaluation) only.
    metrics_.roundDuration = &registry->histogram(
        names::kRoundDuration, telemetry::durationBuckets());
    metrics_.evaluationsPerSecond =
        &registry->gauge(names::kEvaluationsPerSecond);
    metrics_.windows = &registry->counter(names::kSimWindows);
    metrics_.eventLoopWindows = &registry->counter(names::kSimEventLoopWindows);
    metrics_.geometrySeconds = &registry->gauge(names::kSimGeometrySeconds);
    metrics_.nodeSeconds = &registry->gauge(names::kSimNodeSeconds);
    metrics_.serialSeconds = &registry->gauge(names::kSimSerialSeconds);
    registry->gauge(names::kWorkerThreads)
        .set(static_cast<double>(perEventOnly_ ? 1 : workers_));
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
    drive(until, nullptr);
  }

  /// Runs until no node has changed protocol state for `quietWindow`, or
  /// until maxTime. (Quiescence in the beacon model: every node keeps
  /// evaluating its rules each interval but none is privileged.) The window
  /// counts from the last move or from Mobility::settleTime(), whichever is
  /// later: hosts still moving is not quiescence.
  /// `noQuietBefore` suppresses the quiet exit until that time — a fault
  /// campaign must not declare quiescence while events are still pending.
  /// Quiet is checked after each event, and a broadcast's arrival at
  /// all of its receivers is one event, so the run stops on a broadcast
  /// boundary: no arrival is ever left half-delivered. (The lookahead
  /// window in which the test could first pass runs event by event.)
  QuietResult runUntilQuiet(SimTime quietWindow, SimTime maxTime,
                            SimTime noQuietBefore = 0) {
    QuietResult result;
    const EvalRateScope rate(metrics_, stats_);
    // While hosts move, links break unseen until their cache entries
    // expire, so a quiet window opens no earlier than the last position
    // change; a topology that never settles is never quiet.
    const SimTime settle = mobility_->settleTime();
    const QuietTest test{quietWindow, noQuietBefore, settle};
    result.quiet =
        drive(maxTime, settle != Mobility::kNeverSettles ? &test : nullptr);
    result.endTime = now_;
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
    lastMove_ = now_;
  }

  /// Reboots node v: protocol state back to the protocol's initial value
  /// and the neighbor cache wiped, as after a transient crash-restart. The
  /// paper's model keeps the node set fixed, so a "crash" is exactly this
  /// kind of transient fault; the protocol must absorb it.
  void rebootNode(graph::Vertex v) {
    nodes_[v].state = protocol_->initialState(v);
    nodes_[v].cache.clear();
    nodes_[v].dirty = true;
    lastMove_ = now_;
    if (events_ != nullptr) {
      events_->emit("reboot", {{"t_us", now_}, {"node", v}});
    }
  }

  /// The radio graph frozen once hosts settle (empty before): the
  /// simulator's one adjacency, reported by the memory ledger.
  [[nodiscard]] const graph::Graph& radioGraph() const noexcept {
    return radioGraph_;
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
  /// one-way reachability is, by the paper's model, not a link. It starts
  /// from the unit-disk graph over the largest radius: the frozen radio
  /// graph once hosts have settled (no host has moved since it was built),
  /// else graph::unitDiskGraph of the positions now, on the team. Per-node
  /// radii then keep the links both ends reach.
  [[nodiscard]] graph::Graph currentTopology() {
    std::vector<graph::Point> pts(nodes_.size());
    for (graph::Vertex v = 0; v < nodes_.size(); ++v) {
      pts[v] = mobility_->position(v, now_);
    }
    graph::Graph reach = frozen_ && now_ >= settle_
                             ? radioGraph_
                             : graph::unitDiskGraph(pts, maxRadius_);
    if (config_.perNodeRadius.empty()) return reach;
    graph::Graph topo(nodes_.size());
    topo.rebuildFrom(reach, [&](graph::Vertex u, graph::Vertex v) {
      const double r = std::min(radiusOf(u), radiusOf(v));
      return graph::squaredDistance(pts[u], pts[v]) <= r * r;
    });
    return topo;
  }

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IndexStats& indexStats() const noexcept {
    return indexStats_;
  }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] SimTime lastMoveTime() const noexcept { return lastMove_; }

  /// Number of whole beacon intervals elapsed — the paper's round count.
  [[nodiscard]] double roundsElapsed() const noexcept {
    return static_cast<double>(now_) /
           static_cast<double>(config_.beaconInterval);
  }

  // --- Fault-campaign hooks (driven by chaos::SimChaosController) -------
  //
  // chaosAttach() allocates the chaos state; every other chaos* method
  // requires it. While no fault has fired the attached simulator's
  // trajectory is bit-identical to an unattached one: the chaos checks
  // read only all-zero flag arrays, change no draw, and schedule no
  // events (the controller keys its fault draws by a chaos seed of its own).

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
    if (maxDriftFactor > 1.0) {
      broadcastSlack_ *= maxDriftFactor;
      if (config_.queue == QueueMode::Calendar &&
          config_.propagationDelay > 0) {
        queue_.setBucketCount(wheelShape(config_, maxDriftFactor).second);
      }
    }
  }

  /// Schedules a ChaosTick carrying `index`; the handler set via
  /// chaosSetHandler receives it when simulated time reaches `at`.
  void chaosScheduleTick(SimTime at, std::int64_t index) {
    queue_.schedule(at, Event{ChaosTick{index}});
  }
  void chaosSetHandler(std::function<void(std::int64_t)> handler) {
    chaos_->handler = std::move(handler);
  }
  /// Called after every committed protocol move (simulated time, node), in
  /// event order. Under the window executor the calls come after the
  /// move's lookahead window has run, so a hook must not read simulator
  /// state; the controller's feeds a RecoveryMonitor.
  void chaosSetMoveHook(std::function<void(SimTime, graph::Vertex)> hook) {
    chaos_->moveHook = std::move(hook);
  }

  /// Crash: the node stops transmitting (its pending beacon-timer chain is
  /// orphaned by the epoch bump) and hears nothing until it rejoins.
  /// Neighbors discover the silence through cache expiry, exactly like a
  /// real host vanishing.
  void chaosCrash(graph::Vertex v) {
    chaos_->faulted = true;
    if (chaos_->crashed[v] == 0) ++chaos_->crashedCount;
    chaos_->crashed[v] = 1;
    ++chaos_->epoch[v];
  }

  /// Rejoin after a crash: fresh initial state, empty neighbor cache, and a
  /// new beacon-timer chain starting `phase` from now (the caller draws the
  /// phase from its own keyed stream to keep the restart desynchronized).
  void chaosRejoin(graph::Vertex v, SimTime phase) {
    chaos_->faulted = true;
    if (chaos_->crashed[v] != 0) --chaos_->crashedCount;
    chaos_->crashed[v] = 0;
    ++chaos_->epoch[v];
    nodes_[v].state = protocol_->initialState(v);
    nodes_[v].cache.clear();
    nodes_[v].dirty = true;
    lastMove_ = now_;
    if (placing()) {
      // Placed at once (its recorded cell may be arbitrarily old), and
      // queued as the node's latest deferred placement so an earlier one
      // from the same window cannot overwrite it.
      const graph::Point p = mobility_->position(v, now_);
      grid_.place(v, p);
      if (deferPlaces()) pendingPlaces_.push_back(Placement{v, p});
    }
    queue_.schedule(now_ + std::max<SimTime>(1, phase),
                    Event{BeaconTimer{v, chaos_->epoch[v]}});
    if (events_ != nullptr) {
      events_->emit("reboot", {{"t_us", now_}, {"node", v}});
    }
  }

  /// Partition: beacons between different sides are dropped at the radio.
  void chaosSetPartition(std::vector<std::uint8_t> side) {
    assert(side.size() == nodes_.size());
    chaos_->faulted = true;
    chaos_->side = std::move(side);
    chaos_->partitionActive = true;
  }
  void chaosHealPartition() { chaos_->partitionActive = false; }

  /// Loss bursts: swap the per-receiver loss probability (restore with the
  /// original value). Loss draws are keyed, so changing p changes no other
  /// draw.
  void chaosSetLossProbability(double p) { config_.lossProbability = p; }
  [[nodiscard]] double lossProbability() const noexcept {
    return config_.lossProbability;
  }

  /// Clock drift: this node's beacon interval is multiplied by `factor`
  /// (1.0 restores a true clock).
  void chaosSetDrift(graph::Vertex v, double factor) {
    chaos_->faulted = true;
    chaos_->drift[v] = factor;
    chaos_->minDrift =
        *std::min_element(chaos_->drift.begin(), chaos_->drift.end());
  }

  /// Stuck: the node keeps beaconing its current state but never evaluates
  /// its rules — a frozen program with a live radio.
  void chaosSetStuck(graph::Vertex v, bool stuck) {
    chaos_->faulted = true;
    chaos_->stuck[v] = stuck ? 1 : 0;
    if (!stuck) nodes_[v].dirty = true;  // resume with a forced evaluation
  }

  /// Garble: the node's *next* beacon carries `payload` instead of its real
  /// state (one corrupted transmission, then the radio is honest again).
  void chaosGarble(graph::Vertex v, State payload) {
    chaos_->faulted = true;
    chaos_->garbled[v] = std::move(payload);
  }

  /// Overwrites one node's state in place (targeted corruption).
  void setNodeState(graph::Vertex v, State state) {
    nodes_[v].state = std::move(state);
    nodes_[v].dirty = true;
    lastMove_ = now_;
  }

  [[nodiscard]] bool chaosCrashed(graph::Vertex v) const noexcept {
    return chaos_ != nullptr && chaos_->crashed[v] != 0;
  }

 private:
  struct BeaconTimer {
    graph::Vertex node;
    /// Crash/rejoin bump the node's chaos epoch; a timer whose epoch no
    /// longer matches belongs to an orphaned chain and is dropped. Always 0
    /// when no chaos state is attached.
    std::uint32_t epoch = 0;
  };
  /// Fault-campaign timer; `index` identifies the FaultEvent to apply.
  struct ChaosTick {
    std::int64_t index;
  };
  /// What the queue holds; arrivals travel in the lane.
  using Event = std::variant<BeaconTimer, ChaosTick>;

  /// One broadcast's arrival at all of its receivers, an entry of the
  /// arrival lane: the payload as sent (a garbled one included) and the
  /// ascending receivers that passed the range, chaos, loss and collision
  /// tests. Lane slots are recycled, receiver buffers included, once the
  /// arrival has run.
  struct Arrival {
    SimTime at = 0;
    std::uint64_t seq = 0;
    graph::Vertex from = 0;
    State payload{};
    std::vector<graph::Vertex> receivers;
  };
  using Lane = FifoLane<Arrival>;

  // Sender first, then the state, then the 8-byte stamp: a 4-byte state
  // packs the entry into 16 bytes instead of 24.
  struct CacheEntry {
    graph::Vertex from;
    State state;
    SimTime heardAt;
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

  /// One beacon-timer firing, carried through the handlers: locate (A)
  /// fills the receiver list, broadcast (B) filters it into a lane entry,
  /// expireAndEvaluate (C) records what finish() emits.
  struct alignas(64) Beacon {
    graph::Vertex node = 0;
    std::uint32_t event = 0;      ///< its index in the window's events
    SimTime at = 0;
    graph::Point pos;
    std::vector<graph::Vertex> receivers;
    std::size_t lost = 0;         ///< receivers the loss draws dropped
    typename Lane::Position arrival = 0;  ///< its lane entry
    bool capture = false;         ///< the entry takes the post-move state
    std::vector<graph::Vertex> expired;  ///< filled only with an event log
    std::size_t expiredCount = 0;
    std::size_t cacheSize = 0;
    bool evaluated = false;
    bool moved = false;
    double seconds = 0.0;         ///< per-node phase, with metrics only
  };

  /// A window's events in (time, seq) order; `index` is the Beacon slot of
  /// a timer and the lane position of an arrival.
  struct WindowEvent {
    enum class Kind : std::uint8_t { Timer, Arrival, Orphan };
    Kind kind;
    std::uint64_t index;
  };

  struct Window {
    std::vector<WindowEvent> events;
    /// The timers' beacons in event order; grows, never shrinks: buffers
    /// are reused.
    std::vector<Beacon> beacons;
    std::size_t beaconCount = 0;
    /// One past the window's last arrival.
    typename Lane::Position laneEnd = 0;
  };

  struct Placement {
    graph::Vertex node;
    graph::Point at;
  };

  struct QuietTest {
    SimTime window;
    SimTime noQuietBefore;
    SimTime settle;
  };

  /// One worker's own state: the view buffer, its delivery count, phase
  /// A's index counters and histogram samples (added to IndexStats and the
  /// registry when a drive call returns), and the cumulative seconds it
  /// spent in each team phase (cache-line aligned so workers never share a
  /// line).
  struct alignas(64) WorkerSlot {
    std::vector<engine::NeighborRef<State>> view;
    std::size_t delivered = 0;  ///< this window's deliveries (phase C)
    std::size_t gridQueries = 0;
    std::size_t candidates = 0;
    std::size_t rangeChecks = 0;
    telemetry::HistogramTally candidateSizes;
    telemetry::HistogramTally cellOccupancy;
    double geometry = 0.0;
    double node = 0.0;
  };

  /// The calendar's bucket width and count. With a delay D a bucket is one
  /// lookahead window (a whole number of them once an interval spans more
  /// than kMaxBuckets windows), so a window drains buckets that were each
  /// sorted once, and the wheel covers one jittered beacon interval
  /// stretched by `drift`; later timers overflow. With no delay, 64
  /// buckets of 1/16 interval.
  static std::pair<SimTime, std::size_t> wheelShape(const NetworkConfig& c,
                                                    double drift) {
    const SimTime d = c.propagationDelay;
    if (d <= 0) return {std::max<SimTime>(1, c.beaconInterval / 16), 64};
    constexpr SimTime kMaxBuckets = 4096;
    const SimTime width =
        d * std::max<SimTime>(1, (c.beaconInterval / d + kMaxBuckets - 1) /
                                     kMaxBuckets);
    const double cover = (1.0 + c.jitterFraction) * drift *
                         static_cast<double>(c.beaconInterval);
    return {width, static_cast<std::size_t>(std::min(
                       cover / static_cast<double>(width),
                       4.0 * static_cast<double>(kMaxBuckets))) +
                       2};
  }

  // --- Drive loop --------------------------------------------------------

  /// Advances to `until`, window by window; returns true when `quiet`'s
  /// test passed (the run then stopped right after that event).
  bool drive(SimTime until, const QuietTest* quiet) {
    const bool timed = metrics_.serialSeconds != nullptr;
    const auto start = timed ? Clock::now() : Clock::time_point{};
    dispatchSeconds_ = 0.0;
    const bool stopped = driveWindows(until, quiet);
    if (workers_ > 1) parallel::team().rest();  // none until the next drive
    for (WorkerSlot& w : workerSlots_) {
      indexStats_.gridQueries += std::exchange(w.gridQueries, 0);
      indexStats_.broadcastCandidates += std::exchange(w.candidates, 0);
      countBatch(indexStats_.rangeChecks, metrics_.rangeChecks,
                 std::exchange(w.rangeChecks, 0));
      if (metrics_.broadcastCandidates != nullptr) {
        metrics_.broadcastCandidates->add(w.candidateSizes);
        metrics_.gridOccupancy->add(w.cellOccupancy);
      }
    }
    if (timed) {
      const double total =
          std::chrono::duration<double>(Clock::now() - start).count();
      metrics_.serialSeconds->add(total - dispatchSeconds_);
      double geometry = 0.0;
      double node = 0.0;
      for (WorkerSlot& p : workerSlots_) {
        geometry += std::exchange(p.geometry, 0.0);
        node += std::exchange(p.node, 0.0);
      }
      metrics_.geometrySeconds->add(geometry);
      metrics_.nodeSeconds->add(node);
    }
    return stopped;
  }

  bool driveWindows(SimTime until, const QuietTest* quiet) {
    while (pending() && nextTime() <= until) {
      const SimTime first = nextTime();
      enterWindowOf(first);
      if (tickNext()) {
        dispatchNext();
        if (quietNow(quiet)) return true;
        continue;
      }
      if (phasedNext(until, quiet)) {
        runWindows(until, quiet);
        continue;
      }
      // The reference order: event by event to the window's end.
      countOne(metrics_.eventLoopWindows);
      const SimTime end = windowEnd(first);
      while (pending() && nextTime() < end && nextTime() <= until) {
        dispatchNext();
        if (quietNow(quiet)) return true;
      }
    }
    return false;
  }

  /// Whether an event is pending in the queue or the arrival lane.
  [[nodiscard]] bool pending() const noexcept {
    return !queue_.empty() || !lane_.empty();
  }

  /// Time of the next event, the lane's or the queue's, whichever leads by
  /// (at, seq); requires pending().
  [[nodiscard]] SimTime nextTime() {
    return lane_.leads(queue_) ? lane_.front().at : queue_.nextTime();
  }

  /// Whether the next event is a ChaosTick; requires pending().
  [[nodiscard]] bool tickNext() {
    return !lane_.leads(queue_) &&
           std::holds_alternative<ChaosTick>(queue_.peek());
  }

  /// Whether the next event opens a window the executor may run in phases:
  /// it is due by `until`, is no ChaosTick, the lookahead bound holds, and
  /// runUntilQuiet's test cannot pass inside the window.
  [[nodiscard]] bool phasedNext(SimTime until, const QuietTest* quiet) {
    return pending() && nextTime() <= until && !tickNext() && windowed() &&
           !quietPossible(quiet, windowEnd(nextTime()));
  }

  /// The window executor: runs consecutive lookahead windows, overlapping
  /// phase C of each with phase A of the next, until the next event is a
  /// ChaosTick, lies past `until`, or needs the per-event loop.
  void runWindows(SimTime until, const QuietTest* quiet) {
    Window* cur = &windows_[0];
    Window* next = &windows_[1];
    collect(*cur, until);
    runTeam(nullptr, cur);
    for (;;) {
      queuePlacements(*cur);
      broadcastAll(*cur);
      const bool more = phasedNext(until, quiet);
      if (more) {
        enterWindowOf(nextTime());
        collect(*next, until);
      }
      runTeam(cur, more ? next : nullptr);
      std::size_t delivered = 0;
      for (WorkerSlot& worker : workerSlots_) {
        delivered += std::exchange(worker.delivered, 0);
      }
      countBatch(stats_.beaconsDelivered, metrics_.beaconsDelivered,
                 delivered);
      for (std::size_t i = 0; i < cur->beaconCount; ++i) {
        finish(cur->beacons[i]);
      }
      lane_.release(cur->laneEnd);  // phase C has read its arrivals
      if (!more) return;
      std::swap(cur, next);
    }
  }

  /// Pops one window's events (all already queued: see the header comment),
  /// merging the lane's arrivals with the queue's timers by (at, seq).
  /// Freezes the radio graph first if the window is its first settled one,
  /// and prepares the mobility span the events query.
  void collect(Window& w, SimTime until) {
    countOne(metrics_.windows);
    w.events.clear();
    w.beaconCount = 0;
    const SimTime first = nextTime();
    const SimTime end = windowEnd(first);
    const auto due = [&](SimTime at) { return at < end && at <= until; };
    freezeBefore(first);
    SimTime last = first;
    for (;;) {
      if (lane_.leads(queue_)) {
        const SimTime at = lane_.front().at;
        if (!due(at)) break;
        last = at;
        w.events.push_back({WindowEvent::Kind::Arrival, lane_.pop()});
        continue;
      }
      if (queue_.empty()) break;
      const SimTime at = queue_.nextTime();
      if (!due(at) || std::holds_alternative<ChaosTick>(queue_.peek())) {
        break;
      }
      const BeaconTimer timer = std::get<BeaconTimer>(queue_.pop());
      last = at;
      if (orphaned(timer)) {
        w.events.push_back({WindowEvent::Kind::Orphan, 0});
        continue;
      }
      if (w.beaconCount == w.beacons.size()) w.beacons.emplace_back();
      Beacon& b = w.beacons[w.beaconCount];
      b.node = timer.node;
      b.at = at;
      b.event = static_cast<std::uint32_t>(w.events.size());
      w.events.push_back({WindowEvent::Kind::Timer, w.beaconCount++});
    }
    w.laneEnd = lane_.head();
    now_ = last;
    mobility_->prepare(first, last);
  }

  /// The window's grid placements, in event order (a node's latest one
  /// wins), for enterWindowOf to apply when the next window opens.
  void queuePlacements(const Window& w) {
    if (!placing()) return;
    for (std::size_t i = 0; i < w.beaconCount; ++i) {
      pendingPlaces_.push_back(Placement{w.beacons[i].node, w.beacons[i].pos});
    }
  }

  /// Phase B over a window, in event order.
  void broadcastAll(Window& w) {
    for (std::size_t i = 0; i < w.beaconCount; ++i) {
      Beacon& b = w.beacons[i];
      broadcast(b, w.events.size() - b.event - 1);
    }
  }

  /// One team dispatch: phase C of `nodeWindow` and phase A of
  /// `geometryWindow` (either may be null). Worker t owns the t-th node
  /// range in every window, so a node's cache stays in one core's caches;
  /// geometry blocks of a few beacons are then claimed by whoever is free.
  void runTeam(Window* nodeWindow, Window* geometryWindow) {
    const std::size_t n = nodes_.size();
    const std::size_t beacons =
        geometryWindow != nullptr ? geometryWindow->beaconCount : 0;
    if (workers_ == 1) {
      if (nodeWindow != nullptr) nodePhase(*nodeWindow, 0, n, 0);
      if (beacons > 0) geometryPhase(*geometryWindow, 0, beacons, 0);
      return;
    }
    constexpr std::size_t kBeaconsPerBlock = 4;
    const std::size_t blocks =
        (beacons + kBeaconsPerBlock - 1) / kBeaconsPerBlock;
    const bool timed = metrics_.serialSeconds != nullptr;
    const auto start = timed ? Clock::now() : Clock::time_point{};
    std::atomic<std::size_t> claim{0};
    parallel::team().run(workers_, [&](std::size_t worker) {
      if (nodeWindow != nullptr) {
        nodePhase(*nodeWindow, worker * n / workers_,
                  (worker + 1) * n / workers_, worker);
      }
      for (std::size_t b = claim.fetch_add(1, std::memory_order_relaxed);
           b < blocks; b = claim.fetch_add(1, std::memory_order_relaxed)) {
        const std::size_t g = b * kBeaconsPerBlock;
        geometryPhase(*geometryWindow, g,
                      std::min(g + kBeaconsPerBlock, beacons), worker);
      }
    });
    if (timed) {
      dispatchSeconds_ +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
  }

  /// Phase A for beacons [first, last) of a window.
  void geometryPhase(Window& w, std::size_t first, std::size_t last,
                     std::size_t worker) {
    const bool timed = metrics_.serialSeconds != nullptr;
    const auto start = timed ? Clock::now() : Clock::time_point{};
    WorkerSlot& slot = workerSlots_[worker];
    for (std::size_t i = first; i < last; ++i) {
      Beacon& b = w.beacons[i];
      b.pos = mobility_->preparedPosition(b.node, b.at);
      locate(b, slot);
    }
    if (timed) {
      slot.geometry +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
  }

  /// Phase C for the nodes in [lo, hi): their events of the window, in
  /// event order. Receiver lists are ascending, so each arrival's share is
  /// one contiguous run.
  void nodePhase(Window& w, std::size_t lo, std::size_t hi,
                 std::size_t worker) {
    const bool timed = metrics_.serialSeconds != nullptr;
    const auto start = timed ? Clock::now() : Clock::time_point{};
    for (const WindowEvent& e : w.events) {
      if (e.kind == WindowEvent::Kind::Timer) {
        Beacon& b = w.beacons[e.index];
        if (b.node < lo || b.node >= hi) continue;
        const auto begin =
            metrics_.roundDuration != nullptr ? Clock::now()
                                              : Clock::time_point{};
        expireAndEvaluate(b, workerSlots_[worker].view);
        capture(b);
        if (metrics_.roundDuration != nullptr) {
          b.seconds =
              std::chrono::duration<double>(Clock::now() - begin).count();
        }
      } else if (e.kind == WindowEvent::Kind::Arrival) {
        const Arrival& arrival = std::as_const(lane_)[e.index];
        const auto& to = arrival.receivers;
        auto it = std::lower_bound(to.begin(), to.end(),
                                   static_cast<graph::Vertex>(lo));
        std::size_t delivered = 0;
        const bool crashes = anyCrashed();
        for (; it != to.end() && *it < hi; ++it) {
          if (crashes && chaos_->crashed[*it] != 0) continue;
          deliver(nodes_[*it], arrival.from, arrival.payload, arrival.at);
          ++delivered;
        }
        workerSlots_[worker].delivered += delivered;
      }
    }
    if (timed) {
      workerSlots_[worker].node +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
  }

  // --- Per-event loop ---------------------------------------------------

  /// Runs the next event, the lane's or the queue's.
  void dispatchNext() {
    if (lane_.leads(queue_)) {
      onArrival();
      return;
    }
    Event event = queue_.pop();
    now_ = queue_.now();
    if (auto* timer = std::get_if<BeaconTimer>(&event)) {
      onBeaconTimer(*timer);
    } else if (chaos_ != nullptr && chaos_->handler) {
      chaos_->handler(std::get<ChaosTick>(event).index);
    }
  }

  void onBeaconTimer(const BeaconTimer& timer) {
    if (orphaned(timer)) return;
    const auto start = metrics_.roundDuration != nullptr
                           ? Clock::now()
                           : Clock::time_point{};
    const SimTime now = now_;
    freezeBefore(now);
    mobility_->prepare(now, now);
    Beacon& b = solo_;
    b.node = timer.node;
    b.at = now;
    expireAndEvaluate(b, workerSlots_[0].view);
    b.pos = mobility_->preparedPosition(b.node, now);
    if (placing()) {
      if (deferPlaces()) {
        pendingPlaces_.push_back(Placement{b.node, b.pos});
      } else {
        grid_.place(b.node, b.pos);
      }
    }
    locate(b, workerSlots_[0]);
    broadcast(b, 0);
    capture(b);
    if (metrics_.roundDuration != nullptr) {
      b.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    }
    finish(b);
  }

  /// Pops the lane's front and delivers that broadcast to its receivers,
  /// in ascending order. A receiver that crashed after the send hears
  /// nothing; the others are unaffected. The slot is released afterwards.
  void onArrival() {
    const typename Lane::Position at = lane_.pop();
    const Arrival& arrival = lane_[at];
    now_ = arrival.at;
    std::size_t delivered = 0;
    const bool crashes = anyCrashed();
    for (const graph::Vertex to : arrival.receivers) {
      if (crashes && chaos_->crashed[to] != 0) continue;
      deliver(nodes_[to], arrival.from, arrival.payload, arrival.at);
      ++delivered;
    }
    countBatch(stats_.beaconsDelivered, metrics_.beaconsDelivered, delivered);
    lane_.release(at + 1);
  }

  // --- Handlers shared by both orders -----------------------------------

  /// Phase A: the ascending list of nodes that hear the beacon at b.at
  /// before collisions: the nodes in the sender's transmit range (reception
  /// is governed by the transmitter's power) that no chaos mask cuts off,
  /// less the ones the loss draws drop (counted in b.lost). The filters run
  /// over the unsorted candidates; every draw is keyed by (sender, send
  /// time, receiver), so both index modes end up with the same list; the
  /// grid merely prunes receivers that cannot be in range, and once hosts
  /// have settled the frozen radio graph's slice is the in-range list
  /// itself, already ascending (a sender with a shorter radius than the
  /// graph's still tests each member). Reads only positions, radii, chaos
  /// masks, the loss probability, the grid and the frozen graph; counts its
  /// index diagnostics and histogram samples into `tally`.
  void locate(Beacon& b, WorkerSlot& tally) const {
    const graph::Vertex v = b.node;
    const graph::Point me = b.pos;
    const double r2 = radiusOf(v) * radiusOf(v);
    const bool frozen = frozenAt(b.at);
    assert(!frozen || frozen_);
    const bool exact = !frozen || radiusOf(v) < maxRadius_;
    std::size_t rangeChecks = 0;
    const bool masked =
        anyCrashed() || (chaos_ != nullptr && chaos_->partitionActive);
    const double loss = config_.lossProbability;
    const std::uint64_t lossKey =
        hashCombine(hashCombine(lossKey_, v), static_cast<std::uint64_t>(b.at));
    b.lost = 0;
    const auto hears = [&](graph::Vertex u) {
      if (u == v) return false;
      if (masked) {
        // Crashed receivers hear nothing; a partition cuts cross-side
        // links. Neither test draws or counts as a range check.
        if (chaos_->crashed[u] != 0) return false;
        if (chaos_->partitionActive && chaos_->side[u] != chaos_->side[v]) {
          return false;
        }
      }
      if (exact) {
        ++rangeChecks;
        if (graph::squaredDistance(me, mobility_->preparedPosition(u, b.at)) >
            r2) {
          return false;
        }
      }
      if (loss > 0.0 && unitReal(hashCombine(lossKey, u)) < loss) {
        ++b.lost;
        return false;
      }
      return true;
    };
    std::vector<graph::Vertex>& out = b.receivers;
    out.clear();
    if (frozen) {
      for (const graph::Vertex u : radioGraph_.neighbors(v)) {
        if (hears(u)) out.push_back(u);
      }
    } else if (config_.index == IndexMode::Grid) {
      grid_.gather(me, radiusOf(v) + broadcastSlack_, out);
      ++tally.gridQueries;
      tally.candidates += out.size();
      if (metrics_.broadcastCandidates != nullptr) {
        metrics_.broadcastCandidates->tally(tally.candidateSizes,
                                            static_cast<double>(out.size()));
        metrics_.gridOccupancy->tally(
            tally.cellOccupancy, static_cast<double>(grid_.cellMembers(
                                     grid_.cellOf(me)).size()));
      }
      std::erase_if(out, [&](graph::Vertex u) { return !hears(u); });
      graph::sortNeighbors(out.data(), out.size());
    } else {
      for (graph::Vertex u = 0; u < nodes_.size(); ++u) {
        if (hears(u)) out.push_back(u);
      }
    }
    tally.rangeChecks += rangeChecks;
  }

  /// Phase B for one beacon, the work that needs event order: collision
  /// checks in ascending receiver order (each sees the transmissions before
  /// it), the lane entry, the collision ring and the next timer. `later` is
  /// the number of this window's events still to come, which the per-event
  /// loop would not have popped yet (so the queue-depth sample matches it).
  void broadcast(Beacon& b, std::size_t later) {
    const graph::Vertex v = b.node;
    const SimTime now = b.at;
    countBatch(stats_.beaconsLost, metrics_.beaconsLost, b.lost);
    if (config_.collisionWindow > 0) {
      std::size_t collided = 0;
      std::size_t receivers = 0;
      for (const graph::Vertex u : b.receivers) {
        if (collidesAt(u, v, mobility_->preparedPosition(u, now), now)) {
          ++collided;
        } else {
          b.receivers[receivers++] = u;
        }
      }
      b.receivers.resize(receivers);
      countBatch(stats_.beaconsCollided, metrics_.beaconsCollided, collided);
    }
    b.capture = false;
    if (!b.receivers.empty()) {
      // One lane entry for the whole broadcast. The payload is captured at
      // send time, so a garble reset or a state change before arrival is
      // unseen: a garbled one here, the post-evaluation state in capture().
      Arrival& arrival =
          lane_.push(now + config_.propagationDelay, queue_.takeSeq());
      b.arrival = lane_.tail() - 1;
      arrival.from = v;
      arrival.receivers.swap(b.receivers);  // b's list is rebuilt next time
      if (faulted() && chaos_->garbled[v].has_value()) {
        arrival.payload = *chaos_->garbled[v];
      } else {
        b.capture = true;
      }
    }
    if (config_.collisionWindow > 0) {
      if (config_.index == IndexMode::Grid) {
        auto& ring = txRings_[grid_.cellOf(b.pos)];
        pruneRing(ring, now);
        ring.push_back(TxRecord{now, v});
      }
      lastTx_[v] = now;
    }
    ++stats_.beaconsSent;
    if (metrics_.beaconsSent != nullptr) metrics_.beaconsSent->inc();
    if (faulted()) chaos_->garbled[v].reset();  // one beacon only

    // Next beacon with jitter, keyed by (sender, send time), and any chaos
    // clock drift (drift 1.0 multiplies through exactly, keeping the
    // undrifted interval bit-identical).
    const double jitter =
        config_.jitterFraction *
        (2.0 * unitReal(hashCombine(hashCombine(jitterKey_, v),
                                    static_cast<std::uint64_t>(now))) -
         1.0);
    const double drift = faulted() ? chaos_->drift[v] : 1.0;
    const auto interval = std::max<SimTime>(
        1, static_cast<SimTime>(
               (1.0 + jitter) * drift *
               static_cast<double>(config_.beaconInterval)));
    queue_.schedule(now + interval,
                    Event{BeaconTimer{v, faulted() ? chaos_->epoch[v] : 0}});
    if (metrics_.queueDepth != nullptr) {
      metrics_.queueDepth->observe(
          static_cast<double>(queue_.size() + lane_.size() + later));
    }
  }

  /// Phase C for a beacon's own node: expire links whose beacons stopped
  /// arriving, then act on the beacons gathered this round (the paper: a
  /// node takes action after receiving beacon messages from all its
  /// neighbors). Touches only the node and `b`; finish() emits the record.
  void expireAndEvaluate(Beacon& b,
                         std::vector<engine::NeighborRef<State>>& view) {
    const graph::Vertex v = b.node;
    const SimTime now = b.at;
    Node& node = nodes_[v];
    // The cache compacts in place; entries stay sorted by sender, so expiry
    // records come out in ascending neighbor order.
    const auto timeout = static_cast<SimTime>(
        config_.timeoutFactor * static_cast<double>(config_.beaconInterval));
    b.expired.clear();
    b.expiredCount = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < node.cache.size(); ++i) {
      CacheEntry& entry = node.cache[i];
      if (now - entry.heardAt > timeout) {
        ++b.expiredCount;
        if (events_ != nullptr) b.expired.push_back(entry.from);
        node.dirty = true;  // view shrank: re-evaluate
      } else {
        if (keep != i) node.cache[keep] = std::move(entry);
        ++keep;
      }
    }
    node.cache.erase(node.cache.begin() + static_cast<std::ptrdiff_t>(keep),
                     node.cache.end());
    b.cacheSize = node.cache.size();

    // Under the Active schedule a clean node skips the evaluation: its view
    // is unchanged since the last (disabled) evaluation, so a deterministic
    // rule would return the same nullopt.
    const bool stuckNode = faulted() && chaos_->stuck[v] != 0;
    b.evaluated =
        !stuckNode && (config_.schedule != engine::Schedule::Active ||
                       protocol_->readsBeyondNeighborhood() || node.dirty);
    b.moved = false;
    if (!b.evaluated) return;
    node.dirty = false;
    view.clear();
    for (const CacheEntry& entry : node.cache) {
      view.push_back(engine::NeighborRef<State>{
          entry.from, ids_->idOf(entry.from), &entry.state});
    }
    engine::LocalView<State> local;
    local.self = v;
    local.selfId = ids_->idOf(v);
    local.selfState = &node.state;
    local.neighbors = view;
    local.roundKey = hashCombine(
        config_.seed, static_cast<std::uint64_t>(now / config_.beaconInterval));
    if (auto next = viewKernel_ != nullptr ? viewKernel_->evaluateView(local)
                                           : protocol_->onRound(local)) {
      node.state = std::move(*next);
      node.dirty = true;  // own state is part of the view
      b.moved = true;
    }
  }

  /// The post-evaluation state into the broadcast's lane entry (phase C).
  void capture(const Beacon& b) {
    if (b.capture) lane_[b.arrival].payload = nodes_[b.node].state;
  }

  /// One receiver's share of an arrival: insert or refresh the sender's
  /// cache entry.
  static void deliver(Node& node, graph::Vertex from, const State& payload,
                      SimTime at) {
    const auto it = node.cache.begin() +
                    static_cast<std::ptrdiff_t>(senderSlot(node.cache, from));
    if (it == node.cache.end() || it->from != from) {
      node.cache.insert(it, CacheEntry{from, payload, at});
      node.dirty = true;  // new neighbor appeared in the view
    } else {
      // Refresh heardAt in place; a changed payload is copied in and
      // dirties the view, an unchanged one costs no copy at all.
      if (!(it->state == payload)) {
        it->state = payload;
        node.dirty = true;
      }
      it->heardAt = at;
    }
  }

  /// std::lower_bound's slot for `from` in a sender-sorted cache. The
  /// halving steps compare without branching (they compile to conditional
  /// moves), which the unpredictable sender order of arrivals favours: the
  /// answer lies in [base, base + size] throughout.
  static std::size_t senderSlot(const std::vector<CacheEntry>& cache,
                                graph::Vertex from) noexcept {
    std::size_t size = cache.size();
    if (size == 0) return 0;
    const CacheEntry* base = cache.data();
    while (size > 1) {
      const std::size_t half = size / 2;
      base = base[half].from < from ? base + half : base;
      size -= half;
    }
    return static_cast<std::size_t>(base - cache.data()) +
           static_cast<std::size_t>(base->from < from);
  }

  /// Serial emission of one beacon's per-node record, in event order.
  void finish(const Beacon& b) {
    if (b.expiredCount > 0 && metrics_.neighborExpirations != nullptr) {
      metrics_.neighborExpirations->inc(b.expiredCount);
    }
    if (events_ != nullptr) {
      for (const graph::Vertex neighbor : b.expired) {
        events_->emit("neighbor_expired",
                      {{"t_us", b.at}, {"node", b.node}, {"neighbor", neighbor}});
      }
    }
    if (metrics_.cacheSize != nullptr) {
      metrics_.cacheSize->observe(static_cast<double>(b.cacheSize));
    }
    if (b.evaluated) {
      ++stats_.ruleEvaluations;
      if (metrics_.ruleEvaluations != nullptr) metrics_.ruleEvaluations->inc();
    } else {
      ++stats_.evaluationsSkipped;
      if (metrics_.evaluationsSkipped != nullptr) {
        metrics_.evaluationsSkipped->inc();
      }
    }
    if (b.moved) {
      ++stats_.moves;
      if (metrics_.moves != nullptr) metrics_.moves->inc();
      if (events_ != nullptr) {
        events_->emit("move", {{"t_us", b.at}, {"node", b.node}});
      }
      lastMove_ = b.at;
      if (chaos_ != nullptr && chaos_->moveHook) chaos_->moveHook(b.at, b.node);
    }
    if (metrics_.roundDuration != nullptr) {
      metrics_.roundDuration->observe(b.seconds);
    }
  }

  // --- Window bookkeeping -----------------------------------------------

  [[nodiscard]] bool deferPlaces() const noexcept {
    return config_.propagationDelay > 0;
  }

  /// Whether beacons still place themselves in the grid: Grid index, radio
  /// graph not yet frozen.
  [[nodiscard]] bool placing() const noexcept {
    return config_.index == IndexMode::Grid && !frozen_;
  }

  /// Whether a beacon sent at t reads the frozen radio graph: Grid index,
  /// and t's aligned window (t itself with no delay) starts at or after
  /// Mobility::settleTime(). A pure function of t, so the beacons that
  /// read it, and IndexStats, are the same at every worker count and run()
  /// slicing.
  [[nodiscard]] bool frozenAt(SimTime t) const noexcept {
    const SimTime d = config_.propagationDelay;
    return config_.index == IndexMode::Grid &&
           (d > 0 ? t / d * d : t) >= settle_;
  }

  /// Builds the radio graph once, before the first beacon that reads it
  /// (sent at `t`): the unit-disk graph of the exact positions at t over
  /// maxRadius_, on the team. No host moves after settleTime(), so every
  /// later position query returns these points bit for bit, and each slice
  /// is exactly what an exact range test of every host would keep.
  void freezeBefore(SimTime t) {
    if (frozen_ || !frozenAt(t)) return;
    std::vector<graph::Point> points(nodes_.size());
    for (graph::Vertex v = 0; v < nodes_.size(); ++v) {
      points[v] = mobility_->position(v, t);
    }
    radioGraph_ =
        graph::unitDiskGraph(points, maxRadius_, graph::VertexOrder::Points);
    frozen_ = true;
  }

  /// End of the aligned lookahead window holding time t; with no delay
  /// there are no windows and the per-event loop runs to `until`.
  [[nodiscard]] SimTime windowEnd(SimTime t) const noexcept {
    const SimTime d = config_.propagationDelay;
    return d > 0 ? (t / d + 1) * d : std::numeric_limits<SimTime>::max();
  }

  /// Applies the placements deferred from earlier windows once the run
  /// reaches a new aligned window.
  void enterWindowOf(SimTime t) {
    if (!deferPlaces()) return;
    const SimTime index = t / config_.propagationDelay;
    if (index == placedWindow_) return;
    placedWindow_ = index;
    for (const Placement& p : pendingPlaces_) grid_.place(p.node, p.at);
    pendingPlaces_.clear();
  }

  /// Whether windows may run in phases: a delay to look ahead by, a worker
  /// count chosen for it, and no beacon timer able to land inside the window
  /// that scheduled it.
  [[nodiscard]] bool windowed() const noexcept {
    if (perEventOnly_ || config_.propagationDelay <= 0) return false;
    const double drift = chaos_ != nullptr ? chaos_->minDrift : 1.0;
    const auto shortest =
        static_cast<SimTime>((1.0 - config_.jitterFraction) * drift *
                             static_cast<double>(config_.beaconInterval)) -
        1;
    return shortest >= config_.propagationDelay;
  }

  /// Whether some node is crashed (the per-receiver checks are skipped
  /// otherwise, so an attached but idle campaign costs one test per event).
  [[nodiscard]] bool anyCrashed() const noexcept {
    return chaos_ != nullptr && chaos_->crashedCount > 0;
  }

  /// Whether a fault hook has ever run: until then every per-node chaos
  /// array holds its neutral value, and the hot paths skip reading them.
  [[nodiscard]] bool faulted() const noexcept {
    return chaos_ != nullptr && chaos_->faulted;
  }

  [[nodiscard]] bool orphaned(const BeaconTimer& timer) const noexcept {
    return faulted() && timer.epoch != chaos_->epoch[timer.node];
  }

  /// Whether runUntilQuiet's test could pass at an event before `end`. The
  /// last move only moves later, so this errs towards the per-event loop.
  [[nodiscard]] bool quietPossible(const QuietTest* q,
                                   SimTime end) const noexcept {
    if (q == nullptr) return false;
    const SimTime earliest =
        std::max(q->noQuietBefore, std::max(lastMove_, q->settle) + q->window);
    return earliest < end;
  }

  [[nodiscard]] bool quietNow(const QuietTest* q) const noexcept {
    return q != nullptr && now_ >= q->noQuietBefore &&
           now_ - std::max(lastMove_, q->settle) >= q->window;
  }

  /// Adds one broadcast's worth to a stats field and its shadow counter.
  static void countBatch(std::size_t& stat, telemetry::Counter* counter,
                         std::size_t count) {
    stat += count;
    if (counter != nullptr && count > 0) counter->inc(count);
  }

  static void countOne(telemetry::Counter* counter) {
    if (counter != nullptr) counter->inc();
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
      const graph::Point kp = mobility_->preparedPosition(k, now);
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

  [[nodiscard]] double radiusOf(graph::Vertex v) const noexcept {
    return config_.perNodeRadius.empty() ? config_.radius
                                         : config_.perNodeRadius[v];
  }

  using Clock = std::chrono::steady_clock;

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
    telemetry::Counter* windows = nullptr;
    telemetry::Counter* eventLoopWindows = nullptr;
    telemetry::Gauge* geometrySeconds = nullptr;
    telemetry::Gauge* nodeSeconds = nullptr;
    telemetry::Gauge* serialSeconds = nullptr;
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
  /// flags — no draw, event, or schedule is perturbed until a fault
  /// actually fires. Fault randomness (victim choice, corrupted states,
  /// rejoin phases) is the controller's, keyed by its chaos seed.
  /// Every field changes only inside a ChaosTick (or between runs), never
  /// inside a lookahead window.
  struct ChaosState {
    std::function<void(std::int64_t)> handler;
    std::function<void(SimTime, graph::Vertex)> moveHook;
    bool faulted = false;  ///< some fault hook has run
    std::vector<std::uint8_t> crashed;
    std::size_t crashedCount = 0;
    std::vector<std::uint8_t> stuck;
    std::vector<std::uint32_t> epoch;
    std::vector<double> drift;
    double minDrift = 1.0;  ///< min over drift: the lookahead bound
    std::vector<std::uint8_t> side;
    std::vector<std::optional<State>> garbled;
    bool partitionActive = false;
  };

  /// Purposes of the keyed draws, each hashed with the seed.
  static constexpr std::uint64_t kPhaseDraw = 0x9a5e;
  static constexpr std::uint64_t kJitterDraw = 0x717e;
  static constexpr std::uint64_t kLossDraw = 0x1055;

  const engine::Protocol<State>* protocol_;
  const engine::ViewKernel<State>* viewKernel_ = nullptr;
  const graph::IdAssignment* ids_;
  Mobility* mobility_;
  NetworkConfig config_;
  std::uint64_t jitterKey_;  ///< keys of the per-beacon draws
  std::uint64_t lossKey_;
  std::vector<Node> nodes_;
  std::vector<SimTime> lastTx_;
  CalendarQueue<Event> queue_;
  graph::SpatialGrid grid_;
  std::vector<std::vector<TxRecord>> txRings_;  ///< per grid cell
  Lane lane_;  ///< broadcasts in flight, in arrival order
  SimTime now_ = 0;  ///< time of the last event run
  std::vector<Placement> pendingPlaces_;  ///< deferred grid placements
  SimTime placedWindow_ = 0;  ///< aligned window the grid was brought up to
  double maxRadius_ = 0.0;
  SimTime settle_ = 0;  ///< Mobility::settleTime()
  /// Who hears whom over maxRadius_ once hosts have settled (Grid index);
  /// built by freezeBefore().
  graph::Graph radioGraph_;
  bool frozen_ = false;
  double broadcastSlack_ = 0.0;
  double collisionSlack_ = 0.0;
  NetworkStats stats_;
  IndexStats indexStats_;
  Metrics metrics_;
  telemetry::EventLog* events_ = nullptr;
  SimTime lastMove_ = 0;
  bool perEventOnly_ = false;
  std::size_t workers_ = 1;
  Window windows_[2];
  Beacon solo_;  ///< the per-event loop's beacon
  std::vector<WorkerSlot> workerSlots_;  ///< per worker
  double dispatchSeconds_ = 0.0;
  std::unique_ptr<ChaosState> chaos_;
};

}  // namespace selfstab::adhoc
