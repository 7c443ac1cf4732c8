#pragma once
// The Engine's hot-path metric bundle: the counters the engine touches per
// kernel, pre-resolved to registry handles at Engine construction so the
// launch path never does a name lookup (and never allocates — see the
// allocation-counting test in tests/test_par.cpp).
//
// The per-kernel counts (engine.loops, engine.launches,
// engine.fused_launches, engine.reduction_loops, engine.bytes_touched)
// have one store, the site profiler's rows (telemetry/profiler.hpp).
// bind() registers their names here only to keep their place in the
// snapshot order; Engine::metrics_snapshot() publishes them as sums over
// the site table, like the colder families (mem.*, graph.*, time.*).

#include <initializer_list>
#include <span>

#include "telemetry/metrics.hpp"

namespace simas::telemetry {

struct EngineMetrics {
  Counter pool_jobs;      ///< pool.jobs — kernels dispatched to the pool
  Counter pool_inline;    ///< pool.inline_kernels — run on the caller
  Histogram kernel_cells; ///< engine.kernel_cells — iteration-space sizes

  /// Upper bounds of engine.kernel_cells: decades from 1e3 (the inline
  /// threshold neighbourhood) to 1e7, overflow above.
  static constexpr double kCellBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7};

  void bind(Registry& reg) {
    for (const char* name :
         {"engine.launches", "engine.loops", "engine.fused_launches",
          "engine.reduction_loops", "engine.bytes_touched"})
      reg.counter(name);
    pool_jobs = reg.counter("pool.jobs");
    pool_inline = reg.counter("pool.inline_kernels");
    kernel_cells =
        reg.histogram("engine.kernel_cells", std::span<const double>(
                                                 kCellBounds));
  }
};

}  // namespace simas::telemetry
