#include "par/graph_cache.hpp"

namespace simas::par {

bool GraphCache::find(const std::string& scope, const std::string& name,
                      CapturedGraph* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const CapturedGraph* graph = map_.find(key(scope, name));
  if (graph == nullptr) {
    stats_.misses++;
    return false;
  }
  stats_.hits++;
  *out = *graph;
  return true;
}

bool GraphCache::publish(const std::string& scope,
                         const CapturedGraph& graph) {
  if (!graph.captured()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const bool inserted = map_.try_emplace(key(scope, graph.name()), graph).second;
  (inserted ? stats_.publishes : stats_.duplicates)++;
  return inserted;
}

GraphCache::Stats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.evictions = map_.evictions();
  return s;
}

}  // namespace simas::par
