#pragma once
// Pure logic of the repository benchmark, kept apart from the workloads so
// tests can pin it: percentiles and the tail-sample rule, the span recorder
// and its self-time subtraction, seeded input generation, and the output
// checks that compare a timed run against its serial reference.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mhd/ops.hpp"

namespace perfbench {

// --- Percentiles and the tail rule -----------------------------------

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// Samples that lie strictly beyond the nearest-rank q-percentile of n.
std::int64_t samples_beyond(std::int64_t n, double q);

/// A tail percentile is reported only when at least ten samples lie
/// beyond it.
constexpr std::int64_t kMinBeyondTail = 10;
bool tail_ok(std::int64_t n, double q);

/// Smallest sample count whose q-percentile has kMinBeyondTail beyond it.
std::int64_t min_samples_for_tail(double q);

// --- Spans -------------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds on the recorder's clock
  double end = 0.0;
  int id = 0;
  int parent = -1;  ///< -1 = root
  std::int64_t key = -1;    ///< job id or solver run index
  std::int64_t index = -1;  ///< step index within the run
  int lane = 0;             ///< rank or client thread
};

/// In-memory span store. Spans are written out once, after the run.
/// Thread-safe: rank threads record concurrently.
class SpanRecorder {
 public:
  /// Open a span at `start` (recorder clock) and return its id.
  int open(std::string name, double start, int parent, std::int64_t key,
           std::int64_t index, int lane);
  void close(int id, double end);
  /// Record a span whose bounds are already known.
  int add(std::string name, double start, double end, int parent,
          std::int64_t key, std::int64_t index, int lane);

  std::vector<SpanRecord> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent). Indexed like `spans`.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

struct SelfTimeRow {
  std::string name;
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
/// Per-name totals of duration and self time, sorted by name.
std::vector<SelfTimeRow> self_time_by_name(
    const std::vector<SpanRecord>& spans);

/// Chrome/Perfetto trace-event JSON of the spans (one track per lane).
void write_trace_json(const std::string& path,
                      const std::vector<SpanRecord>& spans);

// --- Seeded inputs -----------------------------------------------------

/// splitmix64: the benchmark's own generator, so that inputs do not move
/// when the library's RNG changes.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Physics perturbation drawn from the seed for the solver workloads:
/// it changes every bit of the solution but is small enough to leave the
/// solver iteration counts, and so the work per step, alike across seeds.
struct SolverInputs {
  double dipole_b0 = 1.0;
  double atm_scale = 3.0;
};
SolverInputs solver_inputs(std::uint64_t seed);

struct EnsembleJob {
  std::int64_t id = 0;
  bool miss = false;
  int hot_shape = -1;          ///< index into the hot seeds; -1 for a miss
  std::uint64_t boundary_seed = 0;
};

struct EnsemblePlan {
  std::vector<std::uint64_t> hot_seeds;  ///< prewarmed boundary shapes
  std::vector<EnsembleJob> jobs;
};

/// The ensemble's job sequence: the last job of every block of four is a
/// miss (a boundary seed never seen before in the run); the other three
/// cycle over the seeded hot shapes from a seeded start.
EnsemblePlan ensemble_plan(std::uint64_t seed, int hot_shapes,
                           std::int64_t njobs);

// --- Output checks ------------------------------------------------------

/// What a run must reproduce from its serial reference: final physics
/// bit for bit, and the modeled seconds per step of every rank exactly.
struct RunFingerprint {
  simas::mhd::GlobalDiagnostics diag;
  std::vector<double> modeled_seconds_per_step;  ///< per rank
  int pfss_iterations = 0;
};

/// Empty string when `got` matches `ref`; otherwise the first difference.
std::string compare_fingerprints(const RunFingerprint& got,
                                 const RunFingerprint& ref);

}  // namespace perfbench
