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
// cache mutex — the engine then owns its copy and mutates it freely
// (invalidation on divergence stays engine-local and never poisons the
// cache).

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "par/stream.hpp"
#include "util/types.hpp"

namespace simas::par {

/// A verified-stream certificate: one engine of this scope ran its FULL op
/// stream under validation — the live StreamChecker and the shadow
/// Validator (analysis/) — and both came back clean. Under the same
/// contract that makes graph sharing sound — equal scopes record identical
/// op streams — later engines of the scope may skip runtime shadow checks
/// entirely and fall back to an O(1)-per-op integrity hash: they re-fold
/// par::hash_op_signature over their live stream and compare against
/// `stream_hash` at teardown, so a shape-key collision is loud, not
/// silent.
struct StreamCertificate {
  std::string scope;     ///< shape_key() + "/r<rank>" partition key
  u64 stream_hash = 0;   ///< folded op-signature hash of the verified stream
  i64 ops = 0;           ///< ops in the verified stream
};

class GraphCache {
 public:
  struct Stats {
    i64 hits = 0;       ///< lookups that found a captured graph
    i64 misses = 0;     ///< lookups that found nothing
    i64 publishes = 0;  ///< graphs stored
    i64 duplicates = 0; ///< publishes dropped (first-wins)
    i64 cert_hits = 0;      ///< certificate lookups that found one
    i64 cert_misses = 0;    ///< certificate lookups that found nothing
    i64 cert_publishes = 0; ///< certificates stored
    i64 cert_duplicates = 0;///< certificate publishes dropped (first-wins)
  };

  /// Captured graph for (scope, name), or nullptr. The returned pointer
  /// stays valid for the cache's lifetime (entries are never removed).
  const CapturedGraph* find(const std::string& scope,
                            const std::string& name);

  /// Store a finished capture; returns false if an entry already exists
  /// (first publisher wins).
  bool publish(const std::string& scope, const CapturedGraph& graph);

  /// Verified-stream certificate for `scope`, or nullptr. The returned
  /// pointer stays valid for the cache's lifetime (entries are never
  /// removed).
  const StreamCertificate* find_certificate(const std::string& scope);

  /// Store a certificate; returns false for an empty scope or if one
  /// already exists for its scope (first publisher wins — benign, like graph publication: equal
  /// scopes certify identical streams).
  bool publish_certificate(const StreamCertificate& cert);

  Stats stats() const;

 private:
  static std::string key(const std::string& scope, const std::string& name) {
    return scope + '\x1f' + name;
  }

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<CapturedGraph>> map_;
  std::unordered_map<std::string, std::unique_ptr<StreamCertificate>> certs_;
  Stats stats_;
};

}  // namespace simas::par
