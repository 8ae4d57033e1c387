// FlatMap64 — open-addressed hash map for dense uint64 keys.
//
// The data plane keys almost everything by a 64-bit request id
// (`inflight_`, a node's `pending_`, a proxy's RU-estimate ledger).
// std::unordered_map pays a node allocation per insert and a pointer
// chase per lookup; this map stores (key, value) slots contiguously
// with linear probing, so the per-request lifecycle
// insert -> find -> erase touches one or two cache lines and never
// allocates in steady state once the table has grown to working-set
// size.
//
// Deleted slots become tombstones. When live + dead slots exceed 7/10
// of capacity the table rehashes into a block sized for twice the live
// count, which bounds probe lengths under the insert/erase churn of
// long-running simulations. A purge that keeps the capacity moves the
// live entries into a retained spare block of that capacity and keeps
// the old block as the next spare, so steady churn stops allocating
// after its first purge (the price is one spare block). The slot
// layout depends only on capacity and insert order, never on which
// block holds it.
// Iteration order is unspecified — callers that need deterministic
// order (the bit-identity contract) must iterate an external id-ordered
// index, never the map itself.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace abase {

/// FNV-1a 64 over raw bytes — the canonical key hash for string-keyed
/// FlatMap64 indexes (cache tables). Callers resolve the (vanishingly
/// rare) collision by comparing the stored key string on a hit.
inline uint64_t HashBytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

template <typename V>
class FlatMap64 {
  enum : uint8_t { kEmpty = 0, kFull = 1, kDead = 2 };

 public:
  FlatMap64() = default;
  ~FlatMap64() { DestroyAll(); }

  FlatMap64(const FlatMap64&) = delete;
  FlatMap64& operator=(const FlatMap64&) = delete;

  FlatMap64(FlatMap64&& other) noexcept { Swap(other); }
  FlatMap64& operator=(FlatMap64&& other) noexcept {
    if (this != &other) {
      DestroyAll();
      Release();
      Swap(other);
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return cap_; }

  /// Value for `key`, or nullptr.
  V* Find(uint64_t key) {
    if (cap_ == 0) return nullptr;
    size_t i = Hash(key);
    for (;;) {
      uint8_t s = state_[i];
      if (s == kEmpty) return nullptr;
      if (s == kFull && keys_[i] == key) return &slots_[i];
      i = (i + 1) & mask_;
    }
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }

  /// Inserts a default V for `key` (or returns the existing one).
  V& operator[](uint64_t key) {
    size_t i = FindOrPrepareSlot(key);
    return slots_[i];
  }

  /// Inserts or overwrites.
  V& Insert(uint64_t key, V value) {
    size_t i = FindOrPrepareSlot(key);
    slots_[i] = std::move(value);
    return slots_[i];
  }

  /// Removes `key`; returns true if present.
  bool Erase(uint64_t key) {
    if (cap_ == 0) return false;
    size_t i = Hash(key);
    for (;;) {
      uint8_t s = state_[i];
      if (s == kEmpty) return false;
      if (s == kFull && keys_[i] == key) {
        slots_[i].~V();
        state_[i] = kDead;
        size_--;
        dead_++;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Destroys every element; keeps the table storage.
  void Clear() {
    DestroyAll();
    if (cap_ != 0) std::fill(state_, state_ + cap_, uint8_t{kEmpty});
    size_ = 0;
    dead_ = 0;
  }

  /// Ensures capacity for `n` live entries without rehash.
  void Reserve(size_t n) {
    size_t need = NormalizeCap(n);
    if (need > cap_) Rehash(need);
  }

  /// Calls fn(key, value&) for every live entry, in unspecified order.
  /// Only for order-insensitive sweeps (e.g. TTL expiry scans that
  /// collect ids and sort them afterwards).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < cap_; i++) {
      if (state_[i] == kFull) fn(keys_[i], slots_[i]);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < cap_; i++) {
      if (state_[i] == kFull) fn(keys_[i], const_cast<const V&>(slots_[i]));
    }
  }

 private:
  static size_t NormalizeCap(size_t n) {
    // Keep load below ~0.7 at `n` live entries; minimum 16 slots.
    size_t cap = 16;
    while (cap * 7 < n * 10) cap <<= 1;
    return cap;
  }

  size_t Hash(uint64_t key) const {
    // Fibonacci scramble; the low bits of req ids are sequential.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
  }

  size_t FindOrPrepareSlot(uint64_t key) {
    if (cap_ == 0 || (size_ + dead_ + 1) * 10 > cap_ * 7) {
      Rehash(NormalizeCap(size_ + 1 > 8 ? (size_ + 1) * 2 : 16));
    }
    size_t i = Hash(key);
    size_t first_dead = SIZE_MAX;
    for (;;) {
      uint8_t s = state_[i];
      if (s == kFull && keys_[i] == key) return i;
      if (s == kDead && first_dead == SIZE_MAX) first_dead = i;
      if (s == kEmpty) {
        if (first_dead != SIZE_MAX) {
          i = first_dead;
          dead_--;
        }
        state_[i] = kFull;
        keys_[i] = key;
        ::new (static_cast<void*>(&slots_[i])) V();
        size_++;
        return i;
      }
      i = (i + 1) & mask_;
    }
  }

  void Rehash(size_t new_cap) {
    std::unique_ptr<unsigned char[]> old_storage = std::move(storage_);
    uint8_t* old_state = state_;
    uint64_t* old_keys = keys_;
    V* old_slots = slots_;
    size_t old_cap = cap_;

    cap_ = new_cap;
    mask_ = cap_ - 1;
    if (new_cap == old_cap && spare_ != nullptr) {
      storage_ = std::move(spare_);
    } else {
      storage_.reset(new unsigned char[cap_ * (sizeof(V) + sizeof(uint64_t) +
                                               1) +
                                       alignof(V)]);
    }
    unsigned char* p = storage_.get();
    uintptr_t raw = reinterpret_cast<uintptr_t>(p);
    uintptr_t aligned =
        (raw + (alignof(V) - 1)) & ~static_cast<uintptr_t>(alignof(V) - 1);
    slots_ = reinterpret_cast<V*>(aligned);
    keys_ = reinterpret_cast<uint64_t*>(slots_ + cap_);
    state_ = reinterpret_cast<uint8_t*>(keys_ + cap_);
    std::fill(state_, state_ + cap_, uint8_t{kEmpty});
    size_ = 0;
    dead_ = 0;

    if (old_cap != 0) {
      for (size_t i = 0; i < old_cap; i++) {
        if (old_state[i] == kFull) {
          size_t j = Hash(old_keys[i]);
          while (state_[j] != kEmpty) j = (j + 1) & mask_;
          state_[j] = kFull;
          keys_[j] = old_keys[i];
          ::new (static_cast<void*>(&slots_[j])) V(std::move(old_slots[i]));
          old_slots[i].~V();
          size_++;
        }
      }
    }
    // The spare always has the current capacity (or is null).
    if (new_cap == old_cap) {
      spare_ = std::move(old_storage);
    } else {
      spare_.reset();
    }
  }

  void DestroyAll() {
    for (size_t i = 0; i < cap_; i++) {
      if (state_[i] == kFull) slots_[i].~V();
    }
  }

  void Release() {
    storage_.reset();
    spare_.reset();
    state_ = nullptr;
    keys_ = nullptr;
    slots_ = nullptr;
    cap_ = 0;
    mask_ = 0;
    size_ = 0;
    dead_ = 0;
  }

  void Swap(FlatMap64& other) {
    std::swap(storage_, other.storage_);
    std::swap(spare_, other.spare_);
    std::swap(state_, other.state_);
    std::swap(keys_, other.keys_);
    std::swap(slots_, other.slots_);
    std::swap(cap_, other.cap_);
    std::swap(mask_, other.mask_);
    std::swap(size_, other.size_);
    std::swap(dead_, other.dead_);
  }

  std::unique_ptr<unsigned char[]> storage_;
  /// Block of capacity cap_ kept from the last same-capacity purge.
  std::unique_ptr<unsigned char[]> spare_;
  uint8_t* state_ = nullptr;
  uint64_t* keys_ = nullptr;
  V* slots_ = nullptr;
  size_t cap_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t dead_ = 0;
};

}  // namespace abase
