#pragma once
// Cross-engine cache of captured graphs (par/stream.hpp CapturedGraph).
//
// A captured graph is a validated op sequence: site pointer + cell count
// per op. Sites are interned process-wide (par/site_table.hpp), so a
// graph captured by one engine replays verbatim in another engine of the
// *same shape* — same code version, device, grid slab and step structure
// — because both record identical op streams. The service layer keys the
// cache by an experiment shape string plus rank, so jobs of identical
// shape skip the capture pass entirely: their first PCG pass replays.
//
// Publication is first-wins: concurrent engines capturing the same scope
// race benignly (both captures are identical by construction; the second
// publish is dropped). Lookups copy the graph into the engine under the
// cache mutex and hand out no reference to the stored entry — the engine
// then owns its copy and mutates it freely (invalidation on divergence
// stays engine-local and never poisons the cache).
//
// The cache holds at most kCapacity graphs: a stream of fresh shapes (each
// ensemble miss captures a dozen) would otherwise grow it without bound.
// Publishing past capacity evicts the least-recently-used graph; a find()
// hit counts as a use, so the shapes a server keeps serving stay cached.

#include <mutex>
#include <string>

#include "par/stream.hpp"
#include "util/lru_map.hpp"
#include "util/types.hpp"

namespace simas::par {

class GraphCache {
 public:
  /// Ten shapes of two ranks with six graph scopes each, and room to spare.
  static constexpr std::size_t kCapacity = 128;

  struct Stats {
    i64 hits = 0;       ///< lookups that found a captured graph
    i64 misses = 0;     ///< lookups that found nothing
    i64 publishes = 0;  ///< graphs stored
    i64 duplicates = 0; ///< publishes dropped (first-wins)
    i64 evictions = 0;  ///< least-recently-used graphs dropped
  };

  /// Copy the captured graph for (scope, name) into `*out` under the
  /// cache mutex; false (and `*out` untouched) when there is none.
  bool find(const std::string& scope, const std::string& name,
            CapturedGraph* out);

  /// Store a finished capture; returns false if an entry already exists
  /// (first publisher wins).
  bool publish(const std::string& scope, const CapturedGraph& graph);

  Stats stats() const;

 private:
  static std::string key(const std::string& scope, const std::string& name) {
    return scope + '\x1f' + name;
  }

  mutable std::mutex mutex_;
  LruMap<std::string, CapturedGraph> map_{kCapacity};
  Stats stats_;  ///< evictions are read from map_
};

}  // namespace simas::par
