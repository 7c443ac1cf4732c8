#pragma once
// Capacity-bounded map with least-recently-used eviction: the shared core
// of the service-side caches (par::GraphCache, service::FieldCache). A
// find() hit marks the entry most recently used; inserting a new key into
// a full map first drops the least recently used entry. Inserting a key
// that is already present keeps the existing value (first wins) and does
// not count as a use.
//
// Not thread-safe: each cache holds its own mutex around every call.
// Values live in list nodes, so a pointer returned by find() or
// try_emplace() stays valid until that entry is evicted.

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/types.hpp"

namespace simas {

template <class Key, class Value>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, now the most recently used; nullptr if absent.
  Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Store `value` under a new key and return {entry, true}; for a key
  /// already present return {existing entry, false} and drop `value`.
  std::pair<Value*, bool> try_emplace(const Key& key, Value value) {
    if (const auto it = index_.find(key); it != index_.end())
      return {&it->second->second, false};
    if (index_.size() >= capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
      evictions_++;
    }
    items_.emplace_front(key, std::move(value));
    index_.emplace(key, items_.begin());
    return {&items_.front().second, true};
  }

  std::size_t size() const { return index_.size(); }
  /// Entries dropped to make room so far.
  i64 evictions() const { return evictions_; }

 private:
  using Items = std::list<std::pair<Key, Value>>;

  std::size_t capacity_;
  Items items_;  ///< most recently used first
  std::unordered_map<Key, typename Items::iterator> index_;
  i64 evictions_ = 0;
};

}  // namespace simas
