// Ablation: CUDA-Graph-style capture/replay of the PCG inner iteration.
//
// The paper attributes part of the DC slowdown to kernel fission: every
// loop becomes its own synchronous launch, so the DC codes pay far more
// launch overhead than OpenACC (which fuses kernels and hides launches
// behind async queues, Sec. IV-B). Graph capture/replay amortizes exactly
// that cost — one launch per *captured graph* instead of per kernel — and
// is the follow-on optimization the authors identify beyond fusion/async
// (arXiv:2408.07843). This bench quantifies how much each code version
// gains: the fission-heavy DC versions (Codes 4/5) must benefit more than
// OpenACC (Code 1), whose launches are already fused and mostly hidden.

#include <iostream>

#include "bench_support/run_experiment.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;
using bench_support::ExperimentResult;
using bench_support::run_experiment;

namespace {

struct GraphRun {
  ExperimentResult result;
  double launch_gap_minutes = 0.0;  ///< slowest rank, paper-projected
  par::GraphStats graph;            ///< rank 0
};

GraphRun run_version(variants::CodeVersion version, int nranks, bool graph) {
  ExperimentConfig cfg;
  cfg.version = version;
  cfg.nranks = nranks;
  cfg.grid = bench_support::bench_grid();
  cfg.graph_replay = graph;
  GraphRun run;
  run.result = run_experiment(cfg);
  double worst_gap = 0.0;
  for (const auto& r : run.result.ranks)
    worst_gap = std::max(worst_gap, r.launch_gap_seconds_per_step);
  run.launch_gap_minutes = cfg.scale.minutes_for(worst_gap);
  run.graph = run.result.ranks.front().graph;
  return run;
}

void ablation_for(int nranks) {
  Table table(std::to_string(nranks) +
              " GPU(s): graph replay of PCG iterations (modeled minutes)");
  table.set_header({"version", "wall off", "wall on", "gain %", "gap off",
                    "gap on", "gap saved", "replays", "ops"});
  for (const auto version : variants::gpu_versions()) {
    const GraphRun off = run_version(version, nranks, false);
    const GraphRun on = run_version(version, nranks, true);
    const double wall_off = off.result.metrics.gauge("time.wall_minutes");
    const double wall_on = on.result.metrics.gauge("time.wall_minutes");
    const double gain = 100.0 * (1.0 - wall_on / wall_off);
    table.row()
        .cell(variants::version_tag(version))
        .cell(wall_off, 1)
        .cell(wall_on, 1)
        .cell(gain, 2)
        .cell(off.launch_gap_minutes, 1)
        .cell(on.launch_gap_minutes, 1)
        .cell(off.launch_gap_minutes - on.launch_gap_minutes, 1)
        .cell(static_cast<double>(on.graph.replays), 0)
        .cell(static_cast<double>(on.graph.replayed_ops), 0);
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Ablation: kernel-graph capture/replay "
               "(per-graph vs per-kernel launch overhead)\n\n";
  for (const int nranks : {1, 8}) {
    ablation_for(nranks);
    std::cout << "\n";
  }
  std::cout
      << "'gap' is TimeCategory::LaunchGap (launch overhead + UM kernel\n"
         "gaps). Replay amortizes per-kernel launch overhead, so the\n"
         "fission-heavy DC codes (one synchronous launch per loop, paper\n"
         "Sec. IV-B) gain more than OpenACC, whose kernels are already\n"
         "fused and async-hidden. UM inter-kernel gaps are paging, not\n"
         "launch, overhead and are not amortized.\n";
  return 0;
}
