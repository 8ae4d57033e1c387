#include "storage/memtable.h"

#include <algorithm>
#include <utility>

namespace abase {
namespace storage {

void MemTable::Put(ReplRecordPtr rec) {
  bytes_ += EntryBytes(*rec);
  auto [it, inserted] = table_.try_emplace(rec->key);
  if (inserted) {
    // The key views the record this slot now owns.
    it->second = std::move(rec);
    sorted_dirty_ = true;
    return;
  }
  bytes_ -= EntryBytes(*it->second);
  // The index key views the old record, which may die with this
  // overwrite: re-key the node onto the new record's key. The node
  // itself is reused, so the sorted view's slot pointer stays valid.
  auto node = table_.extract(it);
  node.key() = rec->key;
  node.mapped() = std::move(rec);
  table_.insert(std::move(node));
}

const ValueEntry* MemTable::Get(std::string_view key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second->entry;
}

const std::vector<const ReplRecordPtr*>& MemTable::Sorted() const {
  if (sorted_dirty_ || sorted_.size() != table_.size()) {
    sorted_.clear();
    sorted_.reserve(table_.size());
    for (const auto& slot : table_) sorted_.push_back(&slot.second);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const ReplRecordPtr* a, const ReplRecordPtr* b) {
                return (*a)->key < (*b)->key;
              });
    sorted_dirty_ = false;
  }
  return sorted_;
}

}  // namespace storage
}  // namespace abase
