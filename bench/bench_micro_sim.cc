// Microbenchmarks of the discrete-event substrate: raw event throughput of
// the engine and transfer churn on the network's FIFO reservation timeline.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "sim/network.h"

namespace {

using namespace ear;

void BM_EngineScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * events);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_NetworkFlowChurn(benchmark::State& state) {
  // Continuously maintain `concurrency` random transfers; measures the cost
  // of the reservation events: one per 4 MB slot of each 64 MB transfer.
  const int concurrency = static_cast<int>(state.range(0));
  const Topology topo(20, 20);
  for (auto _ : state) {
    sim::Engine engine;
    sim::Network net(engine, topo, sim::NetConfig{});
    Rng rng(5);
    int completed = 0;
    std::function<void()> feed = [&] {
      const auto src = static_cast<NodeId>(rng.uniform(400));
      auto dst = static_cast<NodeId>(rng.uniform(400));
      if (dst == src) dst = (dst + 1) % 400;
      net.start_transfer(src, dst, 64_MB, [&] {
        ++completed;
        if (completed < 400) feed();
      });
    };
    for (int i = 0; i < concurrency; ++i) feed();
    engine.run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 400);
}
BENCHMARK(BM_NetworkFlowChurn)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
