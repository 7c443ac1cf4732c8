#pragma once
// Metrics registry: the canonical store for every performance counter the
// simulator maintains (see DESIGN.md §13).
//
// Design rules, in order of importance:
//  1. Zero allocation on the hot path. Metrics are registered once at
//     startup; updates through a Counter/Gauge/Histogram handle are a
//     bounds-free indexed store into preallocated slot vectors. The
//     allocation-counting test in tests/test_par.cpp covers the kernel
//     launch path end to end, registry updates included.
//  2. Hierarchical dotted names (`engine.launches`, `mem.manual_h2d_bytes`,
//     `halo.bytes_sent_r`, `pool.jobs`) so exporters and the perf-check
//     comparator can pattern-match families of metrics.
//  3. Rank-local, no atomics. One registry per Engine (per simulated rank),
//     mutated only from that rank's thread — exactly like the ClockLedger.
//     Cross-rank aggregation happens on immutable snapshots, each metric
//     carrying its merge policy (counters sum; gauges take the configured
//     reduction; histograms add bucket-wise).
//
// The registry is the store of record for the halo.*, pool.* and jobs.*
// counters. The per-kernel engine.* counts are kept once, in the engine's
// site profiler rows, and published into the registry by
// Engine::metrics_snapshot(): read them from a snapshot.

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/types.hpp"

namespace simas::telemetry {

enum class MetricKind { Counter, Gauge, Histogram };
/// How a metric combines across ranks when snapshots are merged.
enum class Merge { Sum, Max, Min };

const char* metric_kind_name(MetricKind k);

class Registry;

/// Monotonic integer metric. `add` is the hot-path operation; `set` exists
/// for mirroring externally-accumulated totals into the registry at
/// snapshot time (MemoryStats, GraphStats).
class Counter {
 public:
  Counter() = default;
  inline void add(i64 n = 1);
  inline void set(i64 v);
  inline i64 value() const;
  bool valid() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* reg, u32 slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  u32 slot_ = 0;
};

/// Point-in-time double-valued metric (modeled seconds, ratios).
class Gauge {
 public:
  Gauge() = default;
  inline void set(double v);
  inline double value() const;
  bool valid() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* reg, u32 slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  u32 slot_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts samples with
/// bounds[i-1] < v <= bounds[i]; the last bucket is the overflow. Bounds
/// are fixed at registration so merging across ranks is bucket-wise.
class Histogram {
 public:
  Histogram() = default;
  inline void observe(double v);
  bool valid() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Histogram(Registry* reg, u32 index) : reg_(reg), index_(index) {}
  Registry* reg_ = nullptr;
  u32 index_ = 0;  ///< metric index (not a slot; histograms need bounds)
};

/// One metric's value at snapshot time, self-describing enough to merge
/// and export without the registry that produced it.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  Merge merge = Merge::Sum;
  i64 count = 0;       ///< counter value, or histogram total sample count
  double value = 0.0;  ///< gauge value, or histogram sample sum
  /// Histogram: exact running max of every observed sample (meaningful
  /// only when count > 0). Bucketed data alone flattens the tail — a
  /// cold-start job landing in the overflow bucket reports "somewhere
  /// past the last edge"; the max pins it exactly.
  double max = 0.0;
  std::vector<double> bounds;  ///< histogram upper bounds (empty otherwise)
  std::vector<i64> buckets;    ///< bounds.size() + 1 entries (overflow last)
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  const MetricSample* find(std::string_view name) const;
  /// Counter value by name (0 when absent) — convenience for reports.
  i64 counter(std::string_view name) const;
  /// Gauge value by name (0.0 when absent).
  double gauge(std::string_view name) const;

  /// Fold another rank's snapshot into this one, per-metric merge policy.
  /// Metrics unknown to this snapshot are appended.
  void merge_from(const MetricsSnapshot& other);

  /// Flat JSON object: {"metrics": {"name": value | histogram-object}}.
  void write_json(std::ostream& os) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or look up) a metric. Re-registering the same name with the
  /// same kind returns a handle to the existing metric; a kind mismatch
  /// throws std::logic_error (metric names are a global contract).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name, Merge merge = Merge::Max);
  Histogram histogram(std::string_view name, std::span<const double> bounds);

  std::size_t size() const { return metrics_.size(); }

  MetricsSnapshot snapshot() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct MetricInfo {
    std::string name;
    MetricKind kind;
    Merge merge;
    u32 slot = 0;        ///< index into the kind's slot vector
    u32 bounds_off = 0;  ///< histogram: offset into hist_bounds_
    u32 nbounds = 0;     ///< histogram: bound count (buckets = nbounds + 1)
    u32 counts_off = 0;  ///< histogram: offset into hist_counts_
  };

  u32 lookup_or_add(std::string_view name, MetricKind kind, Merge merge);

  std::vector<MetricInfo> metrics_;  ///< registration order
  std::unordered_map<std::string, u32> index_;
  std::vector<i64> counter_slots_;
  std::vector<double> gauge_slots_;
  std::vector<double> hist_bounds_;  ///< flattened per-histogram bounds
  std::vector<i64> hist_counts_;     ///< flattened per-histogram buckets
  std::vector<double> hist_sums_;    ///< per-histogram sample sum
  std::vector<i64> hist_totals_;     ///< per-histogram sample count
  std::vector<double> hist_maxs_;    ///< per-histogram exact running max
};

// ---- inline hot-path operations -------------------------------------

inline void Counter::add(i64 n) {
  if (reg_ != nullptr) reg_->counter_slots_[slot_] += n;
}
inline void Counter::set(i64 v) {
  if (reg_ != nullptr) reg_->counter_slots_[slot_] = v;
}
inline i64 Counter::value() const {
  return reg_ != nullptr ? reg_->counter_slots_[slot_] : 0;
}

inline void Gauge::set(double v) {
  if (reg_ != nullptr) reg_->gauge_slots_[slot_] = v;
}
inline double Gauge::value() const {
  return reg_ != nullptr ? reg_->gauge_slots_[slot_] : 0.0;
}

inline void Histogram::observe(double v) {
  if (reg_ == nullptr) return;
  const auto& info = reg_->metrics_[index_];
  const double* bounds = reg_->hist_bounds_.data() + info.bounds_off;
  u32 b = 0;
  while (b < info.nbounds && v > bounds[b]) ++b;
  reg_->hist_counts_[info.counts_off + b] += 1;
  reg_->hist_sums_[info.slot] += v;
  if (reg_->hist_totals_[info.slot] == 0 || v > reg_->hist_maxs_[info.slot])
    reg_->hist_maxs_[info.slot] = v;
  reg_->hist_totals_[info.slot] += 1;
}

}  // namespace simas::telemetry
