// Reproduces paper Table III: wall-clock minutes for the test problem on
// dual-socket AMD EPYC 7742 CPU nodes (SDSC Expanse), Codes 1 (A) and
// 2 (AD) on 1 and 8 nodes. The paper's point: the DC code runs
// *identically* to the OpenACC code on CPUs (725.54 vs 725.53 min).

#include <iostream>

#include "bench_support/run_experiment.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;
using bench_support::run_experiment;

int main() {
  std::cout << "Table III reproduction: CPU nodes (modeled minutes)\n\n";

  Table table("wall-clock time on dual-EPYC 7742 nodes");
  table.set_header({"# Nodes", "Code 1 (A)", "Code 2 (AD)", "paper A",
                    "paper AD"});
  const struct {
    int nodes;
    double paper_a, paper_ad;
  } rows[] = {{1, 725.54, 725.53}, {8, 79.58, 79.64}};

  for (const auto& r : rows) {
    double t[2] = {0, 0};
    int idx = 0;
    for (const auto version :
         {variants::CodeVersion::A, variants::CodeVersion::AD}) {
      ExperimentConfig cfg;
      cfg.version = version;
      cfg.nranks = r.nodes;
      cfg.device = gpusim::epyc7742_node();
      cfg.grid = bench_support::bench_grid();
      t[idx++] = run_experiment(cfg).metrics.gauge("time.wall_minutes");
    }
    table.row()
        .cell(r.nodes)
        .cell(t[0], 2)
        .cell(t[1], 2)
        .cell(r.paper_a, 2)
        .cell(r.paper_ad, 2);
  }
  table.print(std::cout);
  std::cout << "\nDC == OpenACC on the CPU: the DC loops compile to the "
               "same multicore code,\nso Codes 1 and 2 are "
               "indistinguishable (paper Sec. V-C).\n";
  return 0;
}
