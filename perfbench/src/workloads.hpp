#pragma once
// The benchmark's three workloads and the probes they share. Each workload
// measures for the requested seconds, checks its outputs against a serial
// reference outside the timed window, and returns its metrics.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "logic.hpp"
#include "par/range.hpp"
#include "variants/code_version.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file written by a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< observations behind the value
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when a check other than a per-item output check failed: exact
  /// counts that drift inside the run, or a tail without enough samples.
  bool consistent = true;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;  ///< reported with tracing off
  std::vector<Metric> per_layer;   ///< reported by a traced run
  std::vector<SpanRecord> spans;   ///< recorded by a traced run
  /// Extra JSON members for the run's report line (name -> JSON value).
  std::vector<std::pair<std::string, std::string>> report;
};

Outcome run_solver_workload(const Options& opt);
Outcome run_ensemble_workload(const Options& opt);

// --- Probes and the machine context (probes.cpp) ----------------------

/// Seconds on one process-wide steady clock.
double now_seconds();

/// Keep `threads` cores busy for `seconds`: after an idle spell this
/// machine runs at about half speed for the first second or so of load,
/// which would otherwise land in the first set-ups and steps.
void warm_cpu(double seconds, int threads);

/// Single-threaded a = b + s * c triad over three arrays of
/// kTriadDoubles doubles; median GB/s over repeats (3 streams of 8 B per
/// element counted, write-allocate traffic not counted).
constexpr std::int64_t kTriadDoubles = std::int64_t{1} << 22;
double triad_gbs();

/// Median cost of one FlightRecorder::record() call, in nanoseconds.
double flight_record_ns();

/// Median host cost of one Engine::for_each launch with a trivial body
/// over `range`, on an engine configured like the workload's ranks.
double launch_us(simas::variants::CodeVersion version, int threads,
                 simas::par::Range3 range);

double peak_rss_mb();
int nproc();
std::int64_t llc_bytes();

/// JSON members describing the machine and the calibration probe.
std::vector<std::pair<std::string, std::string>> machine_context(
    double triad);

// --- Formatting helpers -------------------------------------------------

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
