// AU-LRU reference model — the flat Active-Update LRU (paper Section
// 4.4, proxy-layer cache) that PrefixTreeStore replaced.
//
// A TTL'd LRU with an *active update* mechanism: when a hot entry is
// accessed close to its expiry, the cache reports that the entry should
// be refreshed, so the proxy re-fetches it in the background and a hot
// key never actually expires. PrefixTreeStore's point API must match
// this model bit for bit (hits, misses, refresh requests, eviction
// order); prefix_tree_test checks that parity and cache_test pins the
// contract itself. Header-only because every tests/*.cc is built as its
// own test binary.
#pragma once

#include <cassert>
#include <cstdint>
#include <iterator>
#include <list>
#include <string>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/prefix_tree_store.h"
#include "common/clock.h"
#include "common/flat_map.h"

namespace abase {
namespace cache {

/// Active-update LRU cache with per-entry TTL. Single-threaded.
class AuLruCache {
 public:
  AuLruCache(AuLruOptions options, const Clock* clock)
      : options_(options), clock_(clock) {
    assert(clock_ != nullptr);
  }

  /// Inserts or refreshes `key`. `ttl` of 0 uses the default TTL. Resets
  /// the entry's refresh bookkeeping.
  bool Put(const std::string& key, std::string value, uint64_t charge,
           Micros ttl = 0) {
    if (charge > options_.capacity_bytes) return false;
    if (ttl <= 0) ttl = options_.default_ttl;
    const uint64_t h = HashString(key);
    // Same key or a hash-collided victim: either way the slot's current
    // entry goes, keeping the index bijective with the list.
    if (auto* slot = map_.Find(h)) RemoveEntry(*slot);
    EvictUntilFits(charge);
    lru_.push_front(Entry{key, std::move(value), charge,
                          clock_->NowMicros() + ttl, /*hits_this_period=*/0,
                          /*refresh_flagged=*/false});
    map_.Insert(h, lru_.begin());
    used_ += charge;
    stats_.inserts++;
    return true;
  }

  /// Lookup. Expired entries count as misses and are erased. A hit close
  /// to expiry on a hot entry sets `needs_refresh` (once per TTL period).
  AuLookup Get(const std::string& key) {
    AuLookup out;
    auto* slot = map_.Find(HashString(key));
    if (slot == nullptr || (*slot)->key != key) {
      stats_.misses++;
      return out;
    }
    Entry& e = **slot;
    const Micros now = clock_->NowMicros();
    if (now >= e.expire_at) {
      stats_.expired++;
      stats_.misses++;
      RemoveEntry(*slot);
      return out;
    }
    out.hit = true;
    out.value = &e.value;
    stats_.hits++;
    e.hits_this_period++;
    if (!e.refresh_flagged &&
        e.hits_this_period >= options_.refresh_min_hits &&
        e.expire_at - now <= options_.refresh_window) {
      e.refresh_flagged = true;
      out.needs_refresh = true;
      refresh_queue_.push_back(key);
      refresh_requests_++;
    }
    lru_.splice(lru_.begin(), lru_, *slot);
    return out;
  }

  bool Erase(const std::string& key) {
    auto* slot = map_.Find(HashString(key));
    if (slot == nullptr || (*slot)->key != key) return false;
    RemoveEntry(*slot);
    return true;
  }

  bool Contains(const std::string& key) const {
    const auto* slot = map_.Find(HashString(key));
    return slot != nullptr && (*slot)->key == key;
  }

  /// Entries flagged for refresh since the last call, in flag order.
  std::vector<std::string> TakeRefreshQueue() {
    std::vector<std::string> out;
    out.swap(refresh_queue_);
    return out;
  }

  uint64_t used_bytes() const { return used_; }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  size_t entry_count() const { return map_.size(); }
  const CacheStats& stats() const { return stats_; }
  uint64_t refresh_requests() const { return refresh_requests_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    uint64_t charge;
    Micros expire_at;
    uint32_t hits_this_period;
    bool refresh_flagged;
  };

  void EvictUntilFits(uint64_t incoming) {
    while (used_ + incoming > options_.capacity_bytes && !lru_.empty()) {
      stats_.evictions++;
      RemoveEntry(std::prev(lru_.end()));
    }
  }

  void RemoveEntry(std::list<Entry>::iterator it) {
    used_ -= it->charge;
    map_.Erase(HashString(it->key));
    lru_.erase(it);
  }

  AuLruOptions options_;
  const Clock* clock_;
  std::list<Entry> lru_;  ///< Front = most recent.
  /// Key-hash index; a hash collision is detected by comparing the
  /// stored key and treated as a miss (Get/Erase) or evicts the collided
  /// entry (Put), so the index stays bijective with the list.
  FlatMap64<std::list<Entry>::iterator> map_;
  std::vector<std::string> refresh_queue_;
  uint64_t used_ = 0;
  uint64_t refresh_requests_ = 0;
  CacheStats stats_;
};

}  // namespace cache
}  // namespace abase
