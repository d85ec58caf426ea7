#ifndef WFRM_COMMON_LRU_CACHE_H_
#define WFRM_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace wfrm {

/// Outcome of one cache probe, for hit/miss counters.
enum class CacheLookup {
  kHit,    // A fresh value was present.
  kMiss,   // No value under the key.
  kStale,  // A value was present but built at an older version (a
           // mutation invalidated it); the probe dropped it.
};

/// Canonical lower-case name, used as a metrics label and trace
/// attribute value.
inline const char* CacheLookupName(CacheLookup outcome) {
  switch (outcome) {
    case CacheLookup::kHit:
      return "hit";
    case CacheLookup::kMiss:
      return "miss";
    case CacheLookup::kStale:
      return "stale";
  }
  return "unknown";
}

/// Bounded least-recently-used map from string keys to shared immutable
/// values. Each value carries the version it was built at, and the
/// caller's `fresh` predicate decides at every probe whether it may still
/// be served; a stale value is dropped by the probe that finds it. So
/// writers only bump their version, and nothing is invalidated eagerly.
///
/// Recency is a list threaded through the map's own nodes, which never
/// move: a probe relinks two pointers, each key is stored once, and a
/// probe by `std::string_view` does not allocate. One mutex guards the
/// map. A value dropped by Get, Put or Clear is released after the mutex
/// is, so releasing it may use the cache again.
template <typename T>
class LruCache {
 public:
  using Value = std::shared_ptr<const T>;

  /// A cache of capacity 0 stores nothing.
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value under `key` if `fresh(value)` holds, refreshed as most
  /// recent; a stale value is dropped. `fresh` runs under the mutex, so
  /// it must not call into this cache.
  template <typename Fresh>
  Value Get(std::string_view key, const Fresh& fresh, CacheLookup* outcome) {
    Value dropped;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      *outcome = CacheLookup::kMiss;
      return nullptr;
    }
    Node* node = &it->second;
    Unlink(node);
    if (!fresh(*node->value)) {
      dropped = std::move(node->value);
      map_.erase(it);
      *outcome = CacheLookup::kStale;
      return nullptr;
    }
    LinkNewest(node);
    *outcome = CacheLookup::kHit;
    return node->value;
  }

  /// Inserts or replaces `key` as most recent, evicting the least recent
  /// entry beyond the capacity.
  void Put(std::string_view key, Value value) {
    if (capacity_ == 0) return;
    Value dropped;
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.try_emplace(std::string(key));
    Node* node = &it->second;
    if (inserted) {
      node->key = &it->first;
    } else {
      Unlink(node);
    }
    dropped = std::exchange(node->value, std::move(value));
    LinkNewest(node);
    if (map_.size() > capacity_) {  // One insert evicts at most one entry.
      Node* victim = oldest_;
      Unlink(victim);
      dropped = std::move(victim->value);
      map_.erase(*victim->key);
    }
  }

  void Clear() {
    Map dropped;
    std::lock_guard<std::mutex> lock(mu_);
    dropped.swap(map_);
    newest_ = oldest_ = nullptr;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  struct Node {
    Value value;
    Node* newer = nullptr;
    Node* older = nullptr;
    const std::string* key = nullptr;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Map = std::unordered_map<std::string, Node, KeyHash, std::equal_to<>>;

  void Unlink(Node* node) {
    (node->newer != nullptr ? node->newer->older : newest_) = node->older;
    (node->older != nullptr ? node->older->newer : oldest_) = node->newer;
    node->newer = node->older = nullptr;
  }

  void LinkNewest(Node* node) {
    node->older = newest_;
    if (newest_ != nullptr) newest_->newer = node;
    newest_ = node;
    if (oldest_ == nullptr) oldest_ = node;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  Map map_;
  Node* newest_ = nullptr;
  Node* oldest_ = nullptr;
};

}  // namespace wfrm

#endif  // WFRM_COMMON_LRU_CACHE_H_
