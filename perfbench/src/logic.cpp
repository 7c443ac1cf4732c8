#include "logic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-percentile in a sample of n. The small
/// slack keeps q * n from rounding up past an exact integer (0.9 * 100).
std::int64_t nearest_rank(std::int64_t n, double q) {
  const auto r = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::int64_t>(r, 1, std::max<std::int64_t>(n, 1));
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::int64_t r = nearest_rank(static_cast<std::int64_t>(v.size()), q);
  auto nth = v.begin() + (r - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  return n <= 0 ? 0 : n - nearest_rank(n, q);
}

bool tail_ok(std::int64_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyondTail;
}

std::int64_t min_samples_for_tail(double q) {
  std::int64_t n = 1;
  while (!tail_ok(n, q)) ++n;
  return n;
}

// --- Spans -------------------------------------------------------------

int SpanRecorder::open(std::string name, double start, int parent,
                       std::int64_t key, std::int64_t index, int lane) {
  return add(std::move(name), start, start, parent, key, index, lane);
}

void SpanRecorder::close(int id, double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = end;
}

int SpanRecorder::add(std::string name, double start, double end, int parent,
                      std::int64_t key, std::int64_t index, int lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord s;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.key = key;
  s.index = index;
  s.lane = lane;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<int, std::size_t> slot;  // span id -> position in `spans`
  for (std::size_t i = 0; i < spans.size(); ++i) slot[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto p = slot.find(s.parent);
    if (p == slot.end()) continue;
    const SpanRecord& parent = spans[p->second];
    const double lo = std::max(s.start, parent.start);
    const double hi = std::min(s.end, parent.end);
    if (hi > lo) children[p->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

std::vector<SelfTimeRow> self_time_by_name(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SelfTimeRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTimeRow& r = rows[spans[i].name];
    r.name = spans[i].name;
    r.count += 1;
    r.total_s += spans[i].end - spans[i].start;
    r.self_s += self[i];
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

void write_trace_json(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %d, \"parent\": %d, \"key\": %lld, "
                 "\"index\": %lld}}%s\n",
                 s.name.c_str(), s.lane, s.start * 1e6,
                 (s.end - s.start) * 1e6, s.id, s.parent,
                 static_cast<long long>(s.key),
                 static_cast<long long>(s.index),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// --- Seeded inputs -----------------------------------------------------

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

SolverInputs solver_inputs(std::uint64_t seed) {
  SeedStream s(seed ^ 0x5017e5ull);
  SolverInputs in;
  in.dipole_b0 = 1.0 + 0.005 * (2.0 * s.uniform() - 1.0);
  in.atm_scale = 3.0 + 0.015 * (2.0 * s.uniform() - 1.0);
  return in;
}

EnsemblePlan ensemble_plan(std::uint64_t seed, int hot_shapes,
                           std::int64_t njobs) {
  SeedStream s(seed ^ 0xe75e3b1eull);
  EnsemblePlan plan;
  // Boundary seeds live in disjoint ranges: hot shapes below 2^32, misses
  // counted up from 2^32 so no miss can collide with a hot shape.
  for (int h = 0; h < hot_shapes; ++h)
    plan.hot_seeds.push_back((s.next() >> 35) * 8 + static_cast<unsigned>(h));
  std::uint64_t next_miss = (1ull << 32) + (s.next() >> 40);
  const auto first_shape = static_cast<std::int64_t>(
      s.next() % static_cast<unsigned>(hot_shapes));
  // A fixed pattern keeps the queue dynamics alike from seed to seed: the
  // last job of every block of four misses, the hits cycle over the shapes.
  std::int64_t hits = 0;
  for (std::int64_t j = 0; j < njobs; ++j) {
    EnsembleJob job;
    job.id = j;
    job.miss = j % 4 == 3;
    if (job.miss) {
      job.boundary_seed = next_miss++;
    } else {
      job.hot_shape = static_cast<int>((first_shape + hits++) % hot_shapes);
      job.boundary_seed =
          plan.hot_seeds[static_cast<std::size_t>(job.hot_shape)];
    }
    plan.jobs.push_back(job);
  }
  return plan;
}

// --- Output checks ------------------------------------------------------

std::string compare_fingerprints(const RunFingerprint& got,
                                 const RunFingerprint& ref) {
  // Byte comparison: bit-identical physics, NaN payloads and signed zeros
  // included.
  if (std::memcmp(&got.diag, &ref.diag, sizeof(got.diag)) != 0)
    return "final diagnostics differ";
  if (got.modeled_seconds_per_step.size() !=
      ref.modeled_seconds_per_step.size())
    return "rank count differs";
  for (std::size_t r = 0; r < got.modeled_seconds_per_step.size(); ++r)
    if (got.modeled_seconds_per_step[r] != ref.modeled_seconds_per_step[r])
      return "modeled seconds per step differ on rank " + std::to_string(r);
  if (got.pfss_iterations != ref.pfss_iterations)
    return "PFSS iteration count differs";
  return {};
}

}  // namespace perfbench
