// In-memory write buffer of the LSM engine: a hash index from key to the
// write's shared immutable record (storage/replication_log.h) with byte
// accounting that drives flush decisions, plus a lazily built key-ordered
// view for the (rare) ordered consumers — flush, range scans, and split
// exports.
//
// The memtable stores no row of its own: a put retains the record the
// WAL and the replication log already hold (or the record a primary
// shipped), so a replicated write is materialized once across the whole
// placement. The index key is a string_view into the record's own key;
// an overwrite re-keys the node in place (extract/insert), so it
// allocates nothing. The ordered view is a vector of pointers to the
// index's record slots, sorted on demand; overwrites keep it valid
// (nodes survive extract/insert and the key set is unchanged), only a
// first-seen key marks it dirty.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/replication_log.h"
#include "storage/value.h"

namespace abase {
namespace storage {

/// Mutable key→record buffer. Not internally synchronized; the engine
/// serializes access.
class MemTable {
 public:
  MemTable() = default;
  // The sorted view holds pointers into the index's nodes, so a copied
  // view would alias the *source* table. Copies drop the view and
  // rebuild lazily (the copied index keys still view the shared,
  // immutable records, which the copy keeps alive); moves keep it (node
  // pointers survive a map move).
  MemTable(const MemTable& other)
      : table_(other.table_), bytes_(other.bytes_) {
    sorted_dirty_ = true;
  }
  MemTable& operator=(const MemTable& other) {
    table_ = other.table_;
    bytes_ = other.bytes_;
    sorted_.clear();
    sorted_dirty_ = true;
    return *this;
  }
  MemTable(MemTable&&) = default;
  MemTable& operator=(MemTable&&) = default;

  /// Inserts `rec`, or replaces the record of an existing `rec->key`.
  void Put(ReplRecordPtr rec);

  /// Latest entry for `key`, including tombstones (callers must check).
  const ValueEntry* Get(std::string_view key) const;

  size_t entry_count() const { return table_.size(); }
  uint64_t approximate_bytes() const { return bytes_; }
  bool empty() const { return table_.empty(); }

  /// Key-ordered view of the record slots for flush / scans / exports.
  /// Rebuilt lazily after an insert of a new key; slot pointers are
  /// stable (the index is node-based) and overwrites never invalidate
  /// the view.
  const std::vector<const ReplRecordPtr*>& Sorted() const;

 private:
  static uint64_t EntryBytes(const ReplRecord& rec) {
    return rec.key.size() + rec.entry.PayloadBytes() + kEntryOverhead;
  }

  /// Fixed per-entry overhead (seq, type, TTL, node pointers).
  static constexpr uint64_t kEntryOverhead = 48;

  std::unordered_map<std::string_view, ReplRecordPtr> table_;
  mutable std::vector<const ReplRecordPtr*> sorted_;
  mutable bool sorted_dirty_ = false;
  uint64_t bytes_ = 0;
};

}  // namespace storage
}  // namespace abase
