// Reproduces paper Fig. 3: wall-clock split into MPI time (all MPI calls,
// buffer loading/unloading, waits) and the remainder, for all six code
// versions on 1 and 8 A100 GPUs.

#include <iostream>
#include <string>

#include "bench_support/run_experiment.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;
using bench_support::run_experiment;

namespace {

void breakdown_for(int nranks) {
  Table table(std::to_string(nranks) + " GPU(s): minutes (wall = MPI + rest)");
  table.set_header({"version", "wall", "wall - MPI", "MPI", "MPI %"});
  for (const auto version : variants::gpu_versions()) {
    const bool unified =
        variants::traits_of(version).memory == gpusim::MemoryMode::Unified;
    // UM versions get a "+h" pseudo-version row: the same code with
    // span-driven prefetch/advise hints (EngineConfig::um_hints), showing
    // how much of the Fig. 3 UM penalty the hints recover.
    for (const bool um_hints : {false, true}) {
      if (um_hints && !unified) continue;
      ExperimentConfig cfg;
      cfg.version = version;
      cfg.nranks = nranks;
      cfg.grid = bench_support::bench_grid();
      cfg.um_hints = um_hints;
      const auto res = run_experiment(cfg);
      const double wall = res.metrics.gauge("time.wall_minutes");
      const double mpi = res.metrics.gauge("mpi.exposed_minutes");
      table.row()
          .cell(std::string(variants::version_tag(version)) +
                (um_hints ? "+h" : ""))
          .cell(wall, 1)
          .cell(wall - mpi, 1)
          .cell(mpi, 1)
          .cell(100.0 * mpi / wall, 1);
    }
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  std::cout << "Fig. 3 reproduction: MPI vs non-MPI time (modeled)\n\n";
  breakdown_for(1);
  breakdown_for(8);
  std::cout
      << "paper values (minutes, wall / wall-MPI):\n"
         "  1 GPU : A 200.9/171.9  AD 206.9/177.8  ADU 268.9/227.5\n"
         "          AD2XU 270.7/229.5  D2XU 273.0/230.9  D2XAd 213.0/183.5\n"
         "  8 GPUs: A 23.0/21.0  AD 25.3/23.0  ADU 69.6/29.7\n"
         "          AD2XU 74.1/32.5  D2XU 67.6/31.2  D2XAd 27.4/23.9\n";
  return 0;
}
