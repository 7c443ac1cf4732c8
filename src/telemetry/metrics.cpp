#include "telemetry/metrics.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "util/json.hpp"

namespace simas::telemetry {

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

namespace {

/// Never destroyed: snapshots may outlive static destruction.
struct InternTable {
  std::mutex mutex;
  std::unordered_set<std::string> names;  ///< node-based: entries never move
  std::set<std::vector<double>> bounds;
};

InternTable& intern_table() {
  static InternTable* table = new InternTable;
  return *table;
}

}  // namespace

std::string_view intern_metric_name(std::string_view name) {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  return *t.names.emplace(name).first;
}

std::span<const double> intern_bounds(std::span<const double> bounds) {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  return *t.bounds.emplace(bounds.begin(), bounds.end()).first;
}

u32 Registry::lookup_or_add(std::string_view name, MetricKind kind,
                            Merge merge) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    const MetricInfo& info = metrics_[it->second];
    if (info.kind != kind)
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered as " + metric_kind_name(kind) +
                             " (was " + metric_kind_name(info.kind) + ")");
    return it->second;
  }
  MetricInfo info;
  info.name = intern_metric_name(name);
  info.kind = kind;
  info.merge = merge;
  const u32 idx = static_cast<u32>(metrics_.size());
  metrics_.push_back(info);
  index_.emplace(info.name, idx);
  return idx;
}

Counter Registry::counter(std::string_view name) {
  const std::size_t before = metrics_.size();
  const u32 idx = lookup_or_add(name, MetricKind::Counter, Merge::Sum);
  MetricInfo& info = metrics_[idx];
  if (metrics_.size() > before) {  // newly registered: allocate its slot
    info.slot = static_cast<u32>(counter_slots_.size());
    counter_slots_.push_back(0);
  }
  return Counter(this, info.slot);
}

Gauge Registry::gauge(std::string_view name, Merge merge) {
  const std::size_t before = metrics_.size();
  const u32 idx = lookup_or_add(name, MetricKind::Gauge, merge);
  MetricInfo& info = metrics_[idx];
  if (metrics_.size() > before) {
    info.slot = static_cast<u32>(gauge_slots_.size());
    gauge_slots_.push_back(0.0);
  }
  return Gauge(this, info.slot);
}

Histogram Registry::histogram(std::string_view name,
                              std::span<const double> bounds) {
  const std::size_t before = metrics_.size();
  const u32 idx = lookup_or_add(name, MetricKind::Histogram, Merge::Sum);
  MetricInfo& info = metrics_[idx];
  if (metrics_.size() > before) {
    info.bounds = intern_bounds(bounds);
    info.counts_off = static_cast<u32>(hist_counts_.size());
    info.slot = static_cast<u32>(hist_sums_.size());
    hist_counts_.insert(hist_counts_.end(), bounds.size() + 1, 0);
    hist_sums_.push_back(0.0);
    hist_totals_.push_back(0);
    hist_maxs_.push_back(0.0);
  }
  return Histogram(this, idx);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(metrics_.size());
  for (const MetricInfo& info : metrics_) {
    MetricSample s;
    s.name = info.name;
    s.kind = info.kind;
    s.merge = info.merge;
    switch (info.kind) {
      case MetricKind::Counter:
        s.count = counter_slots_[info.slot];
        break;
      case MetricKind::Gauge:
        s.value = gauge_slots_[info.slot];
        break;
      case MetricKind::Histogram: {
        auto h = std::make_shared<HistogramData>();
        h->bounds = info.bounds;
        h->buckets.assign(
            hist_counts_.begin() + info.counts_off,
            hist_counts_.begin() + info.counts_off + info.bounds.size() + 1);
        h->max = hist_maxs_[info.slot];
        s.hist = std::move(h);
        s.value = hist_sums_[info.slot];
        s.count = hist_totals_[info.slot];
        break;
      }
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

// ---------------------------------------------------------------------
// MetricsSnapshot

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricSample& s : samples)
    if (s.name == name) return &s;
  return nullptr;
}

i64 MetricsSnapshot::counter(std::string_view name) const {
  const MetricSample* s = find(name);
  return s != nullptr ? s->count : 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  const MetricSample* s = find(name);
  return s != nullptr ? s->value : 0.0;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  for (const MetricSample& o : other.samples) {
    MetricSample* mine = nullptr;
    for (MetricSample& s : samples)
      if (s.name == o.name) {
        mine = &s;
        break;
      }
    if (mine == nullptr) {
      samples.push_back(o);
      continue;
    }
    if (mine->kind != o.kind) continue;  // contract violation; keep ours
    switch (mine->kind) {
      case MetricKind::Counter:
        mine->count += o.count;
        break;
      case MetricKind::Gauge:
        switch (mine->merge) {
          case Merge::Sum: mine->value += o.value; break;
          case Merge::Max: mine->value = std::max(mine->value, o.value); break;
          case Merge::Min: mine->value = std::min(mine->value, o.value); break;
        }
        break;
      case MetricKind::Histogram: {
        const HistogramData& theirs = *o.hist;
        if (!std::ranges::equal(mine->hist->bounds, theirs.bounds) ||
            mine->hist->buckets.size() != theirs.buckets.size())
          break;
        // The payload may be shared with other snapshots: merge a copy.
        auto h = std::make_shared<HistogramData>(*mine->hist);
        if (o.count > 0 && (mine->count == 0 || theirs.max > h->max))
          h->max = theirs.max;
        for (std::size_t i = 0; i < h->buckets.size(); ++i)
          h->buckets[i] += theirs.buckets[i];
        mine->hist = std::move(h);
        mine->count += o.count;
        mine->value += o.value;
        break;
      }
    }
  }
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  json::Value metrics{json::Value::Object{}};
  for (const MetricSample& s : samples) {
    const std::string name(s.name);
    switch (s.kind) {
      case MetricKind::Counter:
        metrics.set(name, json::Value(static_cast<long long>(s.count)));
        break;
      case MetricKind::Gauge:
        metrics.set(name, json::Value(s.value));
        break;
      case MetricKind::Histogram: {
        json::Value h{json::Value::Object{}};
        json::Value bounds{json::Value::Array{}};
        for (const double b : s.hist->bounds)
          bounds.push_back(json::Value(b));
        json::Value buckets{json::Value::Array{}};
        for (const i64 c : s.hist->buckets)
          buckets.push_back(json::Value(static_cast<long long>(c)));
        h.set("bounds", std::move(bounds));
        h.set("buckets", std::move(buckets));
        h.set("count", json::Value(static_cast<long long>(s.count)));
        h.set("sum", json::Value(s.value));
        h.set("max", json::Value(s.hist->max));
        metrics.set(name, std::move(h));
        break;
      }
    }
  }
  json::Value root{json::Value::Object{}};
  root.set("metrics", std::move(metrics));
  json::write(os, root, 2);
  os << '\n';
}

}  // namespace simas::telemetry
