// perfbench: the repository benchmark.
//
//   perfbench --workload <solve_large|solve_small_um|ensemble> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Prints a metric table, one JSON report line (machine context, exact
// counts, problems), and as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when an output
// check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"step_ms_p50", "ms"},
    {"step_ms_p90", "ms"},
    {"jobs_per_hour", "1/h"},
    {"job_latency_ms_p50", "ms"},
    {"job_latency_ms_p90", "ms"},
    {"success_rate", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"par.launches_per_step", "count"},
    {"par.pool_jobs_per_step", "count"},
    {"par.inline_kernels_per_step", "count"},
    {"par.launch_us", "us"},
    {"par.graph_cache_hit_ratio", "ratio"},
    {"mhd.initialize_ms", "ms"},
    {"mhd.diagnostics_ms", "ms"},
    {"solvers.pcg_iters_per_step", "count"},
    {"solvers.pfss_iters_per_miss", "count"},
    {"gpusim.modeled_ms_per_step", "ms"},
    {"gpusim.bytes_touched_per_step", "B_computed"},
    {"gpusim.um_faults_per_step", "count"},
    {"gpusim.um_migrations_per_step", "count"},
    {"gpusim.um_prefetch_bytes_per_step", "B"},
    {"gpusim.um_remote_bytes_per_step", "B"},
    {"mpisim.halo_bytes_per_step", "B"},
    {"mpisim.rank_skew_ms_p50", "ms"},
    {"service.queue_ms_p50", "ms"},
    {"service.run_ms_hit_p50", "ms"},
    {"service.run_ms_miss_p50", "ms"},
    {"service.field_cache_hit_ratio", "ratio"},
    {"service.submit_retries_per_job", "count"},
    {"telemetry.flight_record_ns", "ns"},
    {"telemetry.trace_overhead_frac", "ratio"},
    {"calib.triad_gbs", "GB/s"},
};

/// The declared metrics in declared order. A metric the workload does not
/// exercise reads 0 with 0 samples; a name the workload reports that is
/// not declared, or a unit that disagrees, is a benchmark bug.
template <std::size_t N>
std::vector<Metric> canonical(const MetricSpec (&specs)[N],
                              const std::vector<Metric>& got) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : got) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) {
    auto it = by_name.find(s.name);
    Metric m{s.name, 0.0, s.unit, 0};
    if (it != by_name.end()) {
      if (it->second.unit != s.unit)
        throw std::logic_error("unit mismatch for " + it->second.name);
      m = it->second;
      by_name.erase(it);
    }
    out.push_back(m);
  }
  if (!by_name.empty())
    throw std::logic_error("undeclared metric " + by_name.begin()->first);
  return out;
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int a = 1; a < argc; a += 2) {
    if (a + 1 >= argc) return false;
    const std::string key = argv[a], val = argv[a + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 60;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
      have_trace = true;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (const Metric& m : ms) {
    if (s.size() > 1) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}";
}

int run(const Options& opt) {
  warm_cpu(2.0, nproc());
  Outcome out;
  if (opt.workload == "ensemble")
    out = run_ensemble_workload(opt);
  else
    out = run_solver_workload(opt);

  // Calibration, after the timed window and the peak-RSS reading.
  const double triad = triad_gbs();
  out.per_layer.push_back({"calib.triad_gbs", triad, "GB/s", 9});

  const std::vector<Metric> e2e = canonical(kEndToEnd, out.end_to_end);
  const std::vector<Metric> layer =
      opt.trace ? canonical(kPerLayer, out.per_layer) : std::vector<Metric>{};
  for (const Metric& m : opt.trace ? layer : e2e)
    std::printf("%-36s %16.6f %-10s samples=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));

  std::string report = "{\"workload\": " + json_string(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"trace\": " + (opt.trace ? "1" : "0");
  for (const auto& [k, v] : machine_context(triad))
    report += ", " + json_string(k) + ": " + v;
  for (const auto& [k, v] : out.report)
    report += ", " + json_string(k) + ": " + v;
  std::string samples = "{";
  for (const Metric& m : e2e) {
    if (samples.size() > 1) samples += ", ";
    samples += json_string(m.name) + ": " + std::to_string(m.samples);
  }
  report += ", \"samples\": " + samples + "}";
  if (opt.trace) {
    std::string self = "{";
    for (const SelfTimeRow& r : self_time_by_name(out.spans)) {
      if (self.size() > 1) self += ", ";
      self += json_string(r.name) + ": {\"count\": " +
              std::to_string(r.count) + ", \"total_ms\": " +
              json_number(r.total_s * 1e3) +
              ", \"self_ms\": " + json_number(r.self_s * 1e3) + "}";
    }
    report += ", \"spans\": " + std::to_string(out.spans.size()) +
              ", \"self_time\": " + self + "}";
    if (!opt.trace_out.empty()) write_trace_json(opt.trace_out, out.spans);
  }
  std::string problems = "[";
  for (const std::string& p : out.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += json_string(p);
  }
  report += ", \"problems\": " + problems + "]}";
  std::printf("%s\n", report.c_str());

  const bool correct =
      out.failed == 0 && out.consistent && out.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed),
      metrics_json(opt.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt) ||
      (opt.workload != "solve_large" && opt.workload != "solve_small_um" &&
       opt.workload != "ensemble")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<solve_large|solve_small_um|ensemble> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
