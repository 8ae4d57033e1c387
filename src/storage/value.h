// Value representation for the storage engine: Redis-style string and hash
// values with optional TTL and tombstones.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace abase {
namespace storage {

/// kHash payload: (field, value) pairs kept sorted by field. A flat
/// sorted vector instead of std::map — iteration order is identical,
/// but the container is contiguous (no per-field node allocations), and
/// HSET's whole-hash copy is one array copy instead of a tree rebuild.
using HashFields = std::vector<std::pair<std::string, std::string>>;

/// Field lookup by binary search; nullptr when absent.
inline const std::string* FindField(const HashFields& h,
                                    std::string_view field) {
  auto it = std::lower_bound(
      h.begin(), h.end(), field,
      [](const std::pair<std::string, std::string>& p, std::string_view f) {
        return p.first < f;
      });
  if (it == h.end() || it->first != field) return nullptr;
  return &it->second;
}

/// Inserts or overwrites `field`, keeping the vector sorted.
inline void SetField(HashFields& h, std::string_view field,
                     std::string value) {
  auto it = std::lower_bound(
      h.begin(), h.end(), field,
      [](const std::pair<std::string, std::string>& p, std::string_view f) {
        return p.first < f;
      });
  if (it != h.end() && it->first == field) {
    it->second = std::move(value);
  } else {
    h.emplace(it, std::string(field), std::move(value));
  }
}

/// Value kind stored under a key.
enum class ValueType : uint8_t {
  kString = 0,
  kHash = 1,
  kTombstone = 2,  ///< Deletion marker; removed at bottom-level compaction.
};

/// The bytes of a string value. A value that is one byte repeated (the
/// synthetic values the workloads and preloads write) is kept as that
/// byte and a count, so storing it costs no heap block of its size; any
/// other value keeps its bytes. Either way it reads back exactly as
/// written, and size() is its logical length.
class Payload {
 public:
  Payload() = default;
  explicit Payload(std::string_view bytes) {
    const size_t n = bytes.size();
    if (n >= kMinRun && n <= std::numeric_limits<uint32_t>::max() &&
        std::memcmp(bytes.data(), bytes.data() + 1, n - 1) == 0) {
      run_len_ = static_cast<uint32_t>(n);
      run_byte_ = bytes[0];
    } else {
      bytes_.assign(bytes.data(), bytes.size());
    }
  }

  size_t size() const { return run_len_ != 0 ? run_len_ : bytes_.size(); }

  /// Replaces `*out`'s contents with the value (reusing its capacity).
  void CopyTo(std::string* out) const {
    if (run_len_ != 0) {
      out->assign(run_len_, run_byte_);
    } else {
      out->assign(bytes_);
    }
  }

  std::string ToString() const {
    std::string s;
    CopyTo(&s);
    return s;
  }

  bool operator==(std::string_view other) const {
    if (run_len_ == 0) return bytes_ == other;
    return other.size() == run_len_ &&
           std::all_of(other.begin(), other.end(),
                       [this](char c) { return c == run_byte_; });
  }
  bool operator==(const Payload& other) const {
    if (run_len_ == 0) return other == std::string_view(bytes_);
    if (other.run_len_ == 0) return *this == std::string_view(other.bytes_);
    return run_len_ == other.run_len_ && run_byte_ == other.run_byte_;
  }

 private:
  /// Shorter runs keep their bytes: the heap block saved is small.
  static constexpr size_t kMinRun = 64;

  std::string bytes_;
  uint32_t run_len_ = 0;  ///< Non-zero: the value is run_byte_ x run_len_.
  char run_byte_ = 0;
};

/// A versioned value. `seq` orders versions of the same key across runs;
/// higher sequence wins. `expire_at` of 0 means "no TTL".
struct ValueEntry {
  ValueType type = ValueType::kString;
  uint64_t seq = 0;
  Micros expire_at = 0;
  Payload str;       ///< kString payload.
  HashFields hash;   ///< kHash payload, sorted by field.

  bool IsTombstone() const { return type == ValueType::kTombstone; }

  /// True if this entry has a TTL that has elapsed at time `now`.
  bool IsExpiredAt(Micros now) const {
    return expire_at != 0 && now >= expire_at;
  }

  /// Approximate in-memory footprint of the payload in bytes; drives
  /// memtable flush thresholds and cache charging.
  uint64_t PayloadBytes() const {
    if (type == ValueType::kString) return str.size();
    uint64_t total = 0;
    for (const auto& [f, v] : hash) total += f.size() + v.size();
    return total;
  }

  static ValueEntry String(std::string_view value, uint64_t seq,
                           Micros expire_at = 0) {
    ValueEntry e;
    e.type = ValueType::kString;
    e.seq = seq;
    e.expire_at = expire_at;
    e.str = Payload(value);
    return e;
  }

  static ValueEntry Tombstone(uint64_t seq) {
    ValueEntry e;
    e.type = ValueType::kTombstone;
    e.seq = seq;
    return e;
  }
};

}  // namespace storage
}  // namespace abase
