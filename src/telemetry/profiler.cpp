#include "telemetry/profiler.hpp"

#include <algorithm>
#include <ostream>

#include "util/json.hpp"
#include "util/table.hpp"

namespace simas::telemetry {

const std::string& SiteProfileRow::name() const {
  static const std::string none;
  return site != nullptr ? site->name : none;
}

const char* SiteProfileRow::kind() const {
  return site != nullptr ? par::site_kind_name(site->kind) : "";
}

SiteProfileSnapshot SiteProfiler::snapshot() const {
  SiteProfileSnapshot snap;
  for (const SiteProfileRow& r : rows_)
    if (r.site != nullptr) snap.rows.push_back(r);
  return snap;
}

SiteProfileRow SiteProfiler::totals() const {
  SiteProfileRow sum;
  for (const SiteProfileRow& r : rows_) {
    sum.launches += r.launches;
    sum.fused += r.fused;
    sum.reductions += r.reductions;
    sum.cells += r.cells;
    sum.bytes += r.bytes;
    sum.seconds += r.seconds;
  }
  return sum;
}

double SiteProfileSnapshot::total_seconds() const {
  double total = 0.0;
  for (const SiteProfileRow& r : rows) total += r.seconds;
  return total;
}

void SiteProfileSnapshot::merge_from(const SiteProfileSnapshot& other) {
  for (const SiteProfileRow& o : other.rows) {
    SiteProfileRow* mine = nullptr;
    for (SiteProfileRow& r : rows)
      if (r.name() == o.name()) {
        mine = &r;
        break;
      }
    if (mine == nullptr) {
      rows.push_back(o);
      continue;
    }
    mine->launches += o.launches;
    mine->fused += o.fused;
    mine->reductions += o.reductions;
    mine->cells += o.cells;
    mine->bytes += o.bytes;
    mine->seconds += o.seconds;
  }
}

std::vector<SiteProfileRow> SiteProfileSnapshot::top_by_seconds(
    std::size_t n) const {
  std::vector<SiteProfileRow> sorted = rows;
  std::sort(sorted.begin(), sorted.end(),
            [](const SiteProfileRow& a, const SiteProfileRow& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.name() < b.name();
            });
  if (sorted.size() > n) sorted.resize(n);
  return sorted;
}

void SiteProfileSnapshot::print(std::ostream& os, std::size_t top_n) const {
  const double total = total_seconds();
  Table table("hot spots: top " + std::to_string(top_n) +
              " kernel sites by modeled time");
  table.set_header({"site", "kind", "launches", "fused", "Mcells", "MB",
                    "seconds", "%"});
  for (const SiteProfileRow& r : top_by_seconds(top_n)) {
    table.row()
        .cell(r.name())
        .cell(r.kind())
        .cell(r.launches)
        .cell(r.fused)
        .cell(static_cast<double>(r.cells) * 1e-6, 2)
        .cell(static_cast<double>(r.bytes) / (1024.0 * 1024.0), 2)
        .cell(r.seconds, 6)
        .cell(total > 0.0 ? 100.0 * r.seconds / total : 0.0, 1);
  }
  table.print(os);
}

void SiteProfileSnapshot::write_json(std::ostream& os) const {
  json::Value arr{json::Value::Array{}};
  for (const SiteProfileRow& r : top_by_seconds(rows.size())) {
    json::Value row{json::Value::Object{}};
    row.set("site", json::Value(r.name()));
    row.set("kind", json::Value(r.kind()));
    row.set("launches", json::Value(static_cast<long long>(r.launches)));
    row.set("fused", json::Value(static_cast<long long>(r.fused)));
    row.set("cells", json::Value(static_cast<long long>(r.cells)));
    row.set("bytes", json::Value(static_cast<long long>(r.bytes)));
    row.set("modeled_seconds", json::Value(r.seconds));
    arr.push_back(std::move(row));
  }
  json::write(os, arr, 2);
}

}  // namespace simas::telemetry
