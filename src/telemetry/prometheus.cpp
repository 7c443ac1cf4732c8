#include "telemetry/prometheus.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace simas::telemetry {

namespace {

/// Shortest round-trip-ish double formatting, matching the JSON writer's
/// %.15g convention so scraped values agree with exported ones.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "simas_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& snap) {
  for (const MetricSample& s : snap.samples) {
    const std::string name = prometheus_name(s.name);
    switch (s.kind) {
      case MetricKind::Counter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << s.count << "\n";
        break;
      case MetricKind::Gauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << fmt(s.value) << "\n";
        break;
      case MetricKind::Histogram: {
        os << "# TYPE " << name << " histogram\n";
        const HistogramData& h = *s.hist;
        i64 cumulative = 0;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          cumulative += h.buckets[i];
          os << name << "_bucket{le=\"";
          if (i < h.bounds.size())
            os << fmt(h.bounds[i]);
          else
            os << "+Inf";
          os << "\"} " << cumulative << "\n";
        }
        os << name << "_sum " << fmt(s.value) << "\n";
        os << name << "_count " << s.count << "\n";
        // The exact running max rides along as a companion gauge: the
        // overflow bucket says "past the last edge", the max says where.
        os << "# TYPE " << name << "_max gauge\n";
        os << name << "_max " << fmt(h.max) << "\n";
        break;
      }
    }
  }
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::ostringstream os;
  write_prometheus(os, snap);
  return os.str();
}

}  // namespace simas::telemetry
