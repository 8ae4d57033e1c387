#include "storage/sstable.h"

#include <algorithm>

namespace abase {
namespace storage {

SsTable::SsTable(uint64_t id, std::vector<ReplRecordPtr> rows)
    : id_(id), rows_(std::move(rows)), bloom_(rows_.size()) {
  for (const ReplRecordPtr& rec : rows_) {
    bloom_.Add(rec->key);
    data_bytes_ += rec->key.size() + rec->entry.PayloadBytes();
  }
}

SstProbe SsTable::Get(std::string_view key) const {
  size_t hint = 0;
  return Get(KeyRef::From(key), &hint);
}

SstProbe SsTable::Get(std::string_view key, size_t* hint) const {
  return Get(KeyRef::From(key), hint);
}

SstProbe SsTable::Get(const KeyRef& kref, size_t* hint) const {
  const std::string_view key = kref.view();
  SstProbe probe;
  if (!KeyInRange(key) || !bloom_.MayContainHashed(kref.hash)) return probe;
  // Bloom said "maybe": charge one data-block read whether or not the key
  // is actually present (a false positive still reads the block).
  probe.block_reads = 1;
  // For ascending keys, lower_bound(key_i) >= lower_bound(key_{i-1}):
  // resuming from the hint searches the same final position as a full
  // binary search would.
  auto it = std::lower_bound(
      rows_.begin() + static_cast<ptrdiff_t>(*hint), rows_.end(), key,
      [](const ReplRecordPtr& row, std::string_view k) {
        return row->key < k;
      });
  *hint = static_cast<size_t>(it - rows_.begin());
  if (it != rows_.end() && (*it)->key == key) {
    probe.entry = &(*it)->entry;
  }
  return probe;
}

std::vector<ReplRecordPtr> MergeRuns(
    const std::vector<SsTablePtr>& runs_newest_first, bool drop_deletes,
    Micros now, uint64_t* expired_dropped) {
  // One cursor per non-empty run; a cursor's index is its age (0 =
  // newest), since skipping empty runs keeps the relative order.
  struct Cursor {
    const ReplRecordPtr* it;
    const ReplRecordPtr* end;
  };
  std::vector<Cursor> cursors;
  std::vector<uint32_t> heap;
  size_t total = 0;
  for (const SsTablePtr& run : runs_newest_first) {
    const std::vector<ReplRecordPtr>& rows = run->rows();
    if (rows.empty()) continue;
    total += rows.size();
    heap.push_back(static_cast<uint32_t>(cursors.size()));
    cursors.push_back({rows.data(), rows.data() + rows.size()});
  }
  // Min-heap on (key, age) through std::*_heap's max-heap: "a sorts
  // after b" when its key is greater, or equal from an older run, so
  // the newest version of the smallest key pops first.
  auto after = [&cursors](uint32_t a, uint32_t b) {
    const int cmp = (*cursors[a].it)->key.compare((*cursors[b].it)->key);
    if (cmp != 0) return cmp > 0;
    return a > b;
  };
  std::make_heap(heap.begin(), heap.end(), after);

  std::vector<ReplRecordPtr> rows;
  rows.reserve(total);
  // Key of the last decided (kept or dropped) record; it lives in an
  // input run, so the pointer stays valid for the whole merge.
  const std::string* last = nullptr;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = cursors[heap.back()];
    const ReplRecordPtr& rec = *c.it;
    if (last == nullptr || rec->key != *last) {
      last = &rec->key;
      const ValueEntry& entry = rec->entry;
      if (drop_deletes && (entry.IsTombstone() || entry.IsExpiredAt(now))) {
        *expired_dropped += entry.IsExpiredAt(now) ? 1 : 0;
      } else {
        rows.push_back(rec);
      }
    }
    if (++c.it != c.end) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  // Shadowed and dropped versions leave slack; the run keeps this
  // vector for life.
  rows.shrink_to_fit();
  return rows;
}

}  // namespace storage
}  // namespace abase
