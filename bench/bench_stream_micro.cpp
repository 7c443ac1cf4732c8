// BabelStream-style triad microbenchmark across execution models (related
// work the paper cites: Hammond et al., "Benchmarking Fortran DO
// CONCURRENT on CPUs and GPUs using BabelStream"). Uses google-benchmark
// for the host-side execution and prints the modeled device bandwidth per
// model alongside.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_support/host_threads.hpp"
#include "par/engine.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

constexpr idx kN = 1 << 20;

par::EngineConfig config_for(par::LoopModel loops, gpusim::MemoryMode mem) {
  par::EngineConfig cfg;
  cfg.loops = loops;
  cfg.memory = mem;
  cfg.gpu = true;
  // Auto path: SIMAS_HOST_THREADS, else hardware concurrency.
  cfg.host_threads = bench_support::resolve_host_threads(0);
  return cfg;
}

void triad(benchmark::State& state, par::LoopModel loops,
           gpusim::MemoryMode mem) {
  par::Engine eng(config_for(loops, mem));
  std::vector<real> a(kN, 1.0), b(kN, 2.0), c(kN, 0.0);
  const auto ia = eng.memory().register_array("a", kN * 8);
  const auto ib = eng.memory().register_array("b", kN * 8);
  const auto ic = eng.memory().register_array("c", kN * 8);
  for (const auto id : {ia, ib, ic}) eng.memory().enter_data(id);
  static const par::KernelSite& site =
      SIMAS_SITE("stream_triad", par::SiteKind::ParallelLoop, 0);
  const real scalar = 0.4;
  for (auto _ : state) {
    eng.for_each1(site, par::Range1{0, kN},
                  {par::in(ia), par::in(ib), par::out(ic)},
                  [&](idx i) {
                    c[static_cast<std::size_t>(i)] =
                        a[static_cast<std::size_t>(i)] +
                        scalar * b[static_cast<std::size_t>(i)];
                  });
    benchmark::DoNotOptimize(c.data());
  }
  // Modeled bandwidth: bytes per modeled second on the simulated device.
  const i64 bytes_touched =
      eng.metrics_snapshot().counter("engine.bytes_touched");
  const double modeled_bw =
      static_cast<double>(bytes_touched) / eng.ledger().now() / 1e9;
  state.counters["modeled_GBps"] = modeled_bw;
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * kN * 3 * 8);
}

}  // namespace

BENCHMARK_CAPTURE(triad, acc_manual, par::LoopModel::Acc,
                  gpusim::MemoryMode::Manual);
BENCHMARK_CAPTURE(triad, dc2018_manual, par::LoopModel::Dc2018,
                  gpusim::MemoryMode::Manual);
BENCHMARK_CAPTURE(triad, dc2x_unified, par::LoopModel::Dc2x,
                  gpusim::MemoryMode::Unified);

BENCHMARK_MAIN();
