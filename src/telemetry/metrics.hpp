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
#include <memory>
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

/// Process-lifetime copy of a metric name: the returned view stays valid
/// until exit. Equal names share one copy. Takes a mutex (registration
/// path only).
std::string_view intern_metric_name(std::string_view name);
/// Process-lifetime copy of a histogram's bucket bounds, shared like
/// intern_metric_name shares names.
std::span<const double> intern_bounds(std::span<const double> bounds);

/// A histogram sample's buckets. Immutable once built and shared by every
/// copy of the snapshot that holds it (merge_from builds a new one), so
/// copying a snapshot copies no buckets.
struct HistogramData {
  std::span<const double> bounds;  ///< interned upper bounds
  std::vector<i64> buckets;  ///< bounds.size() + 1 entries (overflow last)
  /// Exact running max of every observed sample (meaningful only when the
  /// sample's count > 0). Bucketed data alone flattens the tail — a
  /// cold-start job landing in the overflow bucket reports "somewhere
  /// past the last edge"; the max pins it exactly.
  double max = 0.0;
};

/// One metric's value at snapshot time, self-describing enough to merge
/// and export without the registry that produced it. The name is a view
/// into process-lifetime storage (interned at registration, or a string
/// literal) and only histograms carry a payload, so a counter or gauge
/// sample owns no heap: a served job keeps several snapshots until it is
/// drained, and their size is per-job retained memory.
struct MetricSample {
  std::string_view name;  ///< interned or literal: never dangles
  i64 count = 0;       ///< counter value, or histogram total sample count
  double value = 0.0;  ///< gauge value, or histogram sample sum
  std::shared_ptr<const HistogramData> hist;  ///< histograms only
  MetricKind kind = MetricKind::Counter;
  Merge merge = Merge::Sum;
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
    std::string_view name;  ///< interned
    MetricKind kind;
    Merge merge;
    u32 slot = 0;        ///< index into the kind's slot vector
    u32 counts_off = 0;  ///< histogram: offset into hist_counts_
    std::span<const double> bounds;  ///< histogram: interned bounds
  };

  u32 lookup_or_add(std::string_view name, MetricKind kind, Merge merge);

  std::vector<MetricInfo> metrics_;  ///< registration order
  std::unordered_map<std::string_view, u32> index_;  ///< by interned name
  std::vector<i64> counter_slots_;
  std::vector<double> gauge_slots_;
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
  std::size_t b = 0;
  while (b < info.bounds.size() && v > info.bounds[b]) ++b;
  reg_->hist_counts_[info.counts_off + b] += 1;
  reg_->hist_sums_[info.slot] += v;
  if (reg_->hist_totals_[info.slot] == 0 || v > reg_->hist_maxs_[info.slot])
    reg_->hist_maxs_[info.slot] = v;
  reg_->hist_totals_[info.slot] += 1;
}

}  // namespace simas::telemetry
