// Microbenchmarks: cost of the telemetry instruments themselves, and their
// end-to-end effect on SyncRunner::step. The disabled path (null registry)
// is the one that matters — it must be indistinguishable from an
// uninstrumented engine, which support/overhead.hpp asserts behaviorally
// before any timing starts.
#include <benchmark/benchmark.h>

#include <sstream>

#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "support/overhead.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab {
namespace {

using core::PointerState;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;

void BM_CounterInc(benchmark::State& state) {
  telemetry::Counter c;
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

// Contended path: several threads bumping one counter (shared instruments
// under SyncRunner's worker pool take the same relaxed-atomic route).
void BM_CounterIncContended(benchmark::State& state) {
  static telemetry::Counter c;
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterIncContended)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  telemetry::Gauge g;
  double v = 0.0;
  for (auto _ : state) {
    g.set(v);
    v += 0.5;
  }
  benchmark::DoNotOptimize(g.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Histogram h(telemetry::durationBuckets());
  double v = 1e-7;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1.0 ? v * 1.01 : 1e-7;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

// The disabled timer: no sink, no clock read. This is what every
// instrumented scope costs when telemetry is off.
void BM_ScopedTimerNull(benchmark::State& state) {
  for (auto _ : state) {
    const telemetry::ScopedTimer t(nullptr);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_ScopedTimerNull);

void BM_ScopedTimerActive(benchmark::State& state) {
  telemetry::Histogram h(telemetry::durationBuckets());
  for (auto _ : state) {
    const telemetry::ScopedTimer t(&h);
    benchmark::DoNotOptimize(&t);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ScopedTimerActive);

void BM_EventLogEmit(benchmark::State& state) {
  std::ostringstream sink;
  telemetry::EventLog log(sink);
  std::size_t round = 0;
  for (auto _ : state) {
    log.emit("round", {{"executor", "sync"}, {"round", round}, {"moves", 3}});
    ++round;
    if (round % 4096 == 0) {
      state.PauseTiming();
      sink.str({});  // keep the buffer from growing without bound
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_EventLogEmit);

enum class Wiring { Bare, NullAttached, Instrumented };

// End-to-end: one synchronous round of SMM, with telemetry absent, attached
// but null (the production default), and fully attached. Bare and
// NullAttached should be statistically indistinguishable.
void stepBench(benchmark::State& state, Wiring wiring) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(n);
  const Graph g =
      graph::connectedErdosRenyi(n, 6.0 / static_cast<double>(n), rng);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();

  telemetry::Registry registry;
  SyncRunner<PointerState> runner(smm, g, ids);
  if (wiring == Wiring::NullAttached) {
    runner.attachTelemetry(nullptr, nullptr);
  } else if (wiring == Wiring::Instrumented) {
    runner.attachTelemetry(&registry, nullptr);
  }

  for (auto _ : state) {
    state.PauseTiming();
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.step(states));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_SyncStepBare(benchmark::State& state) {
  stepBench(state, Wiring::Bare);
}
void BM_SyncStepNullAttached(benchmark::State& state) {
  stepBench(state, Wiring::NullAttached);
}
void BM_SyncStepInstrumented(benchmark::State& state) {
  stepBench(state, Wiring::Instrumented);
}
BENCHMARK(BM_SyncStepBare)->Arg(1024)->Arg(4096);
BENCHMARK(BM_SyncStepNullAttached)->Arg(1024)->Arg(4096);
BENCHMARK(BM_SyncStepInstrumented)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace selfstab

int main(int argc, char** argv) {
  // Hard gate before timing anything: disabled telemetry must not change
  // behavior at all.
  selfstab::bench::assertNullRegistryZeroOverhead();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
