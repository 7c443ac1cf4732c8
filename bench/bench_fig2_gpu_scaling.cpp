// Reproduces paper Fig. 2: wall-clock time for the 36M-cell test problem
// on 1..8 A100 (40GB) GPUs for all six code versions, with an ideal-scaling
// reference. Each entry is the average of three modeled runs with min/max
// spread (the paper plots error bars the same way).

#include <iostream>

#include "bench_support/run_experiment.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;
using bench_support::run_experiment;

int main() {
  std::cout << "Fig. 2 reproduction: wall-clock minutes, test problem on "
               "1..8 A100(40GB) GPUs\n"
               "(modeled; average of 3 jittered samples, min/max in "
               "brackets)\n\n";

  const int rank_counts[] = {1, 2, 4, 8};
  Table table("wall-clock time (minutes)");
  table.set_header({"version", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});

  double ideal_base = 0.0;
  for (const auto version : variants::gpu_versions()) {
    std::vector<std::string> row{variants::version_tag(version)};
    for (const int nranks : rank_counts) {
      ExperimentConfig cfg;
      cfg.version = version;
      cfg.nranks = nranks;
      cfg.device = gpusim::device_spec(gpusim::DeviceClass::A100);
      cfg.grid = bench_support::bench_grid();
      const auto res = run_experiment(cfg);
      double avg = 0.0, lo = 1e300, hi = -1e300;
      for (int sample = 0; sample < 3; ++sample) {
        const double m = bench_support::jitter_minutes(
            res.metrics.gauge("time.wall_minutes"), 0.015,
            static_cast<u64>(version) * 100 + nranks, sample);
        avg += m / 3.0;
        lo = std::min(lo, m);
        hi = std::max(hi, m);
      }
      row.push_back(format_fixed(avg, 1) + " [" + format_fixed(lo, 1) + "," +
                    format_fixed(hi, 1) + "]");
      if (version == variants::CodeVersion::A && nranks == 1)
        ideal_base = res.metrics.gauge("time.wall_minutes");
    }
    table.add_row(row);
  }
  {
    std::vector<std::string> row{"ideal"};
    for (const int nranks : rank_counts)
      row.push_back(format_fixed(ideal_base / nranks, 1));
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\npaper (Fig. 2/3, minutes):\n"
               "  A      200.9 -> 23.0 | AD     206.9 -> 25.3 | ADU "
               "268.9 -> 69.6\n"
               "  AD2XU  270.7 -> 74.1 | D2XU   273.0 -> 67.6 | D2XAd "
               "213.0 -> 27.4   (1 GPU -> 8 GPUs)\n";
  return 0;
}
