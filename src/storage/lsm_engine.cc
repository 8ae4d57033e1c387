#include "storage/lsm_engine.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/keyspace.h"

namespace abase {
namespace storage {

LsmEngine::LsmEngine(LsmOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  assert(clock_ != nullptr);
  levels_.resize(static_cast<size_t>(options_.max_levels));
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void LsmEngine::WriteEntry(const std::string& key, ValueEntry entry) {
  entry.seq = next_seq_++;
  // The write's one record: both logs and the memtable retain it, and so
  // do every replica (via the Replicate shipping path) and the SSTables
  // it is later flushed and compacted into.
  ReplRecordPtr rec = MakeReplRecord(key, std::move(entry));
  if (options_.enable_wal) wal_.Append(rec);
  if (options_.enable_repl_log) repl_log_.Append(rec);
  mem_.Put(std::move(rec));
  stats_.puts++;
  MaybeFlush();
}

Status LsmEngine::Put(const std::string& key, std::string_view value,
                      Micros ttl) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  Micros expire_at = ttl > 0 ? clock_->NowMicros() + ttl : 0;
  WriteEntry(key, ValueEntry::String(value, 0, expire_at));
  return Status::OK();
}

Status LsmEngine::Delete(const std::string& key) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  WriteEntry(key, ValueEntry::Tombstone(0));
  return Status::OK();
}

Status LsmEngine::HSet(const std::string& key, const std::string& field,
                       std::string value) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  // Read-modify-write on the merged view: the memtable stores whole-hash
  // versions, so an HSET rewrites the hash with one field changed.
  ReadIo io;
  const ValueEntry* cur = FindEntry(key, &io);
  ValueEntry next;
  next.type = ValueType::kHash;
  if (cur != nullptr && cur->type == ValueType::kHash) {
    next.hash = cur->hash;
    next.expire_at = cur->expire_at;
  }
  SetField(next.hash, field, std::move(value));
  WriteEntry(key, std::move(next));
  return Status::OK();
}

Status LsmEngine::Expire(const std::string& key, Micros ttl) {
  ReadIo io;
  const ValueEntry* cur = FindEntry(key, &io);
  if (cur == nullptr) return Status::NotFound("EXPIRE on missing key");
  ValueEntry next = *cur;
  next.expire_at = ttl > 0 ? clock_->NowMicros() + ttl : 0;
  WriteEntry(key, std::move(next));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

const ValueEntry* LsmEngine::FindEntry(std::string_view key, ReadIo* io) {
  stats_.gets++;
  if (const ValueEntry* e = mem_.Get(key); e != nullptr) {
    stats_.memtable_hits++;
    if (io != nullptr) io->memtable_hit = true;
    if (e->IsTombstone()) return nullptr;
    if (e->IsExpiredAt(clock_->NowMicros())) {
      stats_.expired_dropped++;
      return nullptr;
    }
    if (io != nullptr) {
      io->found = true;
      io->expire_at = e->expire_at;
    }
    return e;
  }
  // Probe runs newest-to-oldest: level order, and within a level the
  // most recently added run first. The key is hashed once here; every
  // run's bloom probe reuses the interned hash.
  const KeyRef kref = KeyRef::From(key);
  for (const auto& level : levels_) {
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      size_t hint = 0;
      SstProbe probe = (*it)->Get(kref, &hint);
      if (probe.block_reads == 0) {
        stats_.bloom_filtered++;
        continue;
      }
      stats_.block_reads += static_cast<uint64_t>(probe.block_reads);
      if (io != nullptr) io->block_reads += probe.block_reads;
      if (probe.entry == nullptr) continue;  // Bloom false positive.
      if (probe.entry->IsTombstone()) return nullptr;
      if (probe.entry->IsExpiredAt(clock_->NowMicros())) {
        stats_.expired_dropped++;
        return nullptr;
      }
      if (io != nullptr) {
        io->found = true;
        io->expire_at = probe.entry->expire_at;
      }
      return probe.entry;
    }
  }
  return nullptr;
}

void LsmEngine::MultiFind(const std::string_view* keys, size_t n,
                          const ValueEntry** entries_out, ReadIo* ios_out) {
  // clock_->NowMicros() is constant within a tick, so hoisting it out of
  // the per-key expiry checks matches FindEntry exactly.
  const Micros now = clock_->NowMicros();
  mfind_pending_.clear();
  for (size_t i = 0; i < n; i++) {
    entries_out[i] = nullptr;
    ios_out[i] = ReadIo{};
    stats_.gets++;
    if (const ValueEntry* e = mem_.Get(keys[i]); e != nullptr) {
      stats_.memtable_hits++;
      ios_out[i].memtable_hit = true;
      if (e->IsTombstone()) continue;
      if (e->IsExpiredAt(now)) {
        stats_.expired_dropped++;
        continue;
      }
      ios_out[i].found = true;
      ios_out[i].expire_at = e->expire_at;
      entries_out[i] = e;
      continue;
    }
    mfind_pending_.push_back(static_cast<uint32_t>(i));
  }
  if (mfind_pending_.empty()) return;

  // Intern each missing key's hash once; every run probe below reuses it
  // instead of re-hashing per run (the batch's main repeated cost).
  if (mfind_krefs_.size() < n) mfind_krefs_.resize(n);
  for (uint32_t i : mfind_pending_) mfind_krefs_[i] = KeyRef::From(keys[i]);

  // Ascending key order lets each run's binary search resume from the
  // previous key's lower bound. Equal keys probe the same position twice,
  // matching two serial lookups.
  std::sort(mfind_pending_.begin(), mfind_pending_.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  // Runs newest-to-oldest, exactly like FindEntry; a key resolved by a
  // newer run (found, tombstone, or expired) never probes older runs.
  for (const auto& level : levels_) {
    if (mfind_pending_.empty()) break;
    for (auto it = level.rbegin();
         it != level.rend() && !mfind_pending_.empty(); ++it) {
      const SsTable& run = **it;
      size_t hint = 0;
      size_t w = 0;
      for (uint32_t i : mfind_pending_) {
        SstProbe probe = run.Get(mfind_krefs_[i], &hint);
        if (probe.block_reads == 0) {
          stats_.bloom_filtered++;
          mfind_pending_[w++] = i;
          continue;
        }
        stats_.block_reads += static_cast<uint64_t>(probe.block_reads);
        ios_out[i].block_reads += probe.block_reads;
        if (probe.entry == nullptr) {  // Bloom false positive.
          mfind_pending_[w++] = i;
          continue;
        }
        if (probe.entry->IsTombstone()) continue;
        if (probe.entry->IsExpiredAt(now)) {
          stats_.expired_dropped++;
          continue;
        }
        ios_out[i].found = true;
        ios_out[i].expire_at = probe.entry->expire_at;
        entries_out[i] = probe.entry;
      }
      mfind_pending_.resize(w);
    }
  }
}

Result<std::string> LsmEngine::Get(std::string_view key, ReadIo* io) {
  ReadIo local;
  const ValueEntry* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type != ValueType::kString) {
    return Status::NotFound("key absent");
  }
  return e->str.ToString();
}

Result<std::string> LsmEngine::HGet(std::string_view key,
                                    std::string_view field, ReadIo* io) {
  ReadIo local;
  const ValueEntry* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type != ValueType::kHash) {
    return Status::NotFound("hash absent");
  }
  const std::string* v = FindField(e->hash, field);
  if (v == nullptr) return Status::NotFound("field absent");
  return *v;
}

Result<uint64_t> LsmEngine::HLen(std::string_view key, ReadIo* io) {
  ReadIo local;
  const ValueEntry* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type != ValueType::kHash) {
    return Status::NotFound("hash absent");
  }
  return static_cast<uint64_t>(e->hash.size());
}

Result<HashFields> LsmEngine::HGetAll(std::string_view key, ReadIo* io) {
  ReadIo local;
  const ValueEntry* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type != ValueType::kHash) {
    return Status::NotFound("hash absent");
  }
  return e->hash;
}

// ---------------------------------------------------------------------------
// Range scans
// ---------------------------------------------------------------------------

namespace {

/// "Disk" granularity of scan block accounting: one charged block read
/// per this many payload bytes consumed from an SSTable cursor (plus
/// one for the run's initial seek). Matches the DataNode's disk-block
/// size so scan I/O charges line up with point-read charges.
constexpr uint64_t kScanBlockBytes = 4096;

}  // namespace

void LsmEngine::SeekSources(std::string_view start, bool after,
                            std::vector<RowCursor>* out) const {
  out->clear();
  auto before = [start, after](std::string_view key) {
    return after ? key <= start : key < start;
  };
  const std::vector<const ReplRecordPtr*>& slots = mem_.Sorted();
  auto s = std::partition_point(
      slots.begin(), slots.end(),
      [&before](const ReplRecordPtr* slot) { return before((*slot)->key); });
  if (s != slots.end()) {
    RowCursor c;
    c.slot = &*s;
    c.slot_end = slots.data() + slots.size();
    c.row = (*s)->get();
    out->push_back(c);
  }
  for (const auto& level : levels_) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const std::vector<ReplRecordPtr>& rows = (*rit)->rows();
      auto r = std::partition_point(
          rows.begin(), rows.end(),
          [&before](const ReplRecordPtr& row) { return before(row->key); });
      if (r == rows.end()) continue;
      RowCursor c;
      c.run = &*r;
      c.run_end = rows.data() + rows.size();
      c.row = r->get();
      out->push_back(c);
    }
  }
}

ScanResult LsmEngine::ScanRange(std::string_view start, std::string_view end,
                                size_t limit, ScanBuffer& out) {
  ScanResult res;
  stats_.scans++;

  SeekSources(start, /*after=*/false, &scan_cursors_);
  // Min-heap on (key, age): std::push/pop_heap keep the *greatest*
  // element at the front, so the comparator says "a sorts after b": a
  // greater key, or an equal key from an older (higher-index) source.
  // The newest version of the smallest key thus pops first.
  auto heap_less = [this](uint32_t a, uint32_t b) {
    int cmp = scan_cursors_[a].row->key.compare(scan_cursors_[b].row->key);
    if (cmp != 0) return cmp > 0;
    return a > b;
  };
  scan_heap_.clear();
  for (uint32_t i = 0; i < scan_cursors_.size(); i++) scan_heap_.push_back(i);
  std::make_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);

  auto advance = [&](uint32_t i) {
    if (scan_cursors_[i].Next()) {
      std::push_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);
    } else {
      scan_heap_.pop_back();
    }
  };

  const Micros now = clock_->NowMicros();
  const std::string* last_key = nullptr;
  res.done = true;
  while (!scan_heap_.empty()) {
    std::pop_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);
    const uint32_t i = scan_heap_.back();
    const ReplRecord& row = *scan_cursors_[i].row;
    const std::string& key = row.key;
    if (!end.empty() && key >= end) {
      // Range exhausted: every remaining cursor is at or past `end`.
      break;
    }
    if (res.entries >= limit) {
      // Limit reached: resume at this key, or just past it when it is an
      // older copy of the key already decided.
      res.done = false;
      res.next_key = key;
      if (last_key != nullptr && key == *last_key) res.next_key += '\0';
      break;
    }
    if (last_key != nullptr && key == *last_key) {
      // Older duplicate of an already-decided key.
      advance(i);
      continue;
    }
    const ValueEntry& entry = row.entry;
    const bool visible = !entry.IsTombstone() && !entry.IsExpiredAt(now);
    if (visible) {
      ScanEntry& se = out.Append();
      se.key = key;
      if (entry.type == ValueType::kString) {
        entry.str.CopyTo(&se.value);
      } else {
        for (const auto& [f, v] : entry.hash) {
          se.value += f;
          se.value += '=';
          se.value += v;
          se.value += '\n';
        }
      }
      res.entries++;
      res.bytes += se.key.size() + se.value.size();
      stats_.scan_entries++;
    } else if (entry.IsExpiredAt(now)) {
      stats_.expired_dropped++;
    }
    // Records are immutable and held by their sources for the whole
    // call, so the key reference survives into the next iteration's
    // duplicate check.
    last_key = &key;
    advance(i);
  }

  // Block accounting: one seek per touched run plus one read per
  // kScanBlockBytes of consumed payload — sequential I/O, so far cheaper
  // per entry than per-key point probes. Memtable cursors consume none.
  for (const RowCursor& c : scan_cursors_) {
    if (c.run_bytes == 0) continue;
    res.block_reads +=
        1 + static_cast<int>(c.run_bytes / kScanBlockBytes);
  }
  stats_.block_reads += static_cast<uint64_t>(res.block_reads);
  return res;
}

std::vector<LsmEngine::ScanEntry> LsmEngine::Scan(std::string_view start,
                                                  std::string_view end,
                                                  size_t limit) {
  ScanBuffer buf;
  ScanRange(start, end, limit, buf);
  std::vector<ScanEntry> out;
  out.reserve(buf.size());
  for (size_t i = 0; i < buf.size(); i++) out.push_back(buf[i]);
  return out;
}

std::vector<LsmEngine::ScanEntry> LsmEngine::ScanPrefix(
    std::string_view prefix, size_t limit) {
  return Scan(prefix, PrefixUpperBound(prefix), limit);
}

// ---------------------------------------------------------------------------
// Hash-range export (online partition split)
// ---------------------------------------------------------------------------

LsmEngine::HashRangeExport LsmEngine::ExportHashRange(
    uint64_t modulus, uint64_t residue, std::string_view start_after,
    uint64_t max_bytes) const {
  HashRangeExport out;
  if (modulus == 0) {
    out.done = true;
    return out;
  }
  // Bounded merged newest-wins view of the keys strictly after the
  // cursor: memtable first, then runs newest-to-oldest (emplace keeps
  // the first — newest — version, exactly like Scan/MergeRuns). Each
  // source contributes keys in order only until a payload cap, so one
  // throttled batch costs O(cap), not O(keys remaining): a source that
  // hit its cap bounds the *safe horizon* — the smallest last-collected
  // key across capped sources — below which the merged view is
  // complete. Keys beyond the horizon wait for the next batch.
  const uint64_t cap = max_bytes * 2 + (64ull << 10);
  std::map<std::string_view, const ValueEntry*> merged;
  bool bounded = false;
  std::string_view horizon;
  std::vector<RowCursor> cursors;
  SeekSources(start_after, /*after=*/true, &cursors);
  for (RowCursor& c : cursors) {
    uint64_t taken = 0;
    std::string_view last;
    bool capped = false;
    do {
      if (taken > cap) {
        capped = true;
        break;
      }
      merged.emplace(c.row->key, &c.row->entry);
      taken += c.row->key.size() + c.row->entry.PayloadBytes();
      last = c.row->key;
    } while (c.Next());
    if (capped) {
      bounded = true;
      if (horizon.empty() || last < horizon) horizon = last;
    }
  }

  const Micros now = clock_->NowMicros();
  bool budget_hit = false;
  for (const auto& [key, entry] : merged) {
    if (bounded && key > horizon) break;
    if (out.bytes >= max_bytes && !out.entries.empty()) {
      budget_hit = true;  // Budget exhausted with keys left to examine.
      break;
    }
    // Examined (matching or not): never revisit.
    out.next_cursor.assign(key.data(), key.size());
    if (Fnv1a64(key) % modulus != residue) continue;
    if (entry->IsTombstone() || entry->IsExpiredAt(now)) continue;
    out.entries.emplace_back(std::string(key), *entry);
    out.bytes += key.size() + entry->PayloadBytes();
  }
  if (bounded && !budget_hit) {
    // Every key up to the horizon was examined; resume past it.
    out.next_cursor.assign(horizon.data(), horizon.size());
  }
  out.done = !bounded && !budget_hit;
  return out;
}

void LsmEngine::Ingest(const std::string& key, ValueEntry entry) {
  WriteEntry(key, std::move(entry));
}

// ---------------------------------------------------------------------------
// Flush & compaction
// ---------------------------------------------------------------------------

void LsmEngine::MaybeFlush() {
  if (mem_.approximate_bytes() >= options_.memtable_flush_bytes) Flush();
}

void LsmEngine::Flush() {
  if (mem_.empty()) {
    MaybeCompact();
    return;
  }
  // The run shares the memtable's records: a pointer copy per row.
  std::vector<ReplRecordPtr> rows;
  rows.reserve(mem_.entry_count());
  uint64_t max_seq = 0;
  for (const ReplRecordPtr* slot : mem_.Sorted()) {
    rows.push_back(*slot);
    max_seq = std::max(max_seq, (*slot)->entry.seq);
  }
  auto sst = std::make_shared<SsTable>(next_sst_id_++, std::move(rows));
  stats_.flush_count++;
  stats_.flushed_bytes += sst->data_bytes();
  levels_[0].push_back(std::move(sst));
  mem_ = MemTable();
  if (options_.enable_wal) wal_.TruncateThrough(max_seq);
  while (MaybeCompact()) {
  }
}

bool LsmEngine::MaybeCompact() {
  for (size_t level = 0; level < levels_.size(); level++) {
    if (levels_[level].size() >
        static_cast<size_t>(options_.runs_per_level_trigger)) {
      CompactLevel(level);
      return true;
    }
  }
  return false;
}

void LsmEngine::CompactLevel(size_t level) {
  const bool is_bottom = level + 1 >= levels_.size();
  const size_t target = is_bottom ? level : level + 1;

  // Newest-first ordering: within a level, later index = newer.
  std::vector<SsTablePtr> inputs;
  for (auto it = levels_[level].rbegin(); it != levels_[level].rend(); ++it) {
    inputs.push_back(*it);
  }
  if (!is_bottom) {
    // Fold the existing target-level runs in as the oldest inputs so the
    // target keeps a single merged run per compaction.
    for (auto it = levels_[target].rbegin(); it != levels_[target].rend();
         ++it) {
      inputs.push_back(*it);
    }
  }

  uint64_t read_bytes = 0;
  for (const auto& run : inputs) read_bytes += run->data_bytes();

  // Tombstones and expired entries may only be dropped when merging into
  // the bottom level (no older version can exist below it).
  const bool drop_deletes = target + 1 >= levels_.size();
  auto merged_rows = MergeRuns(inputs, drop_deletes, clock_->NowMicros(),
                               &stats_.expired_dropped);

  levels_[level].clear();
  if (!is_bottom) levels_[target].clear();
  if (!merged_rows.empty()) {
    auto merged =
        std::make_shared<SsTable>(next_sst_id_++, std::move(merged_rows));
    stats_.compaction_write_bytes += merged->data_bytes();
    levels_[target].push_back(std::move(merged));
  }
  stats_.compaction_count++;
  stats_.compaction_read_bytes += read_bytes;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

Status LsmEngine::ApplyReplicated(const ReplRecordPtr& rec) {
  if (rec->entry.seq != next_seq_) {
    return Status::InvalidArgument("replication stream gap");
  }
  next_seq_ = rec->entry.seq + 1;
  // The shipped record is the primary's own: this replica's logs and
  // memtable retain it with refcount bumps, no key/value copy.
  if (options_.enable_wal) wal_.Append(rec);
  if (options_.enable_repl_log) repl_log_.Append(rec);
  mem_.Put(rec);
  stats_.repl_applied++;
  MaybeFlush();
  return Status::OK();
}

Status LsmEngine::ApplyReplicated(const ReplRecord& rec) {
  return ApplyReplicated(std::make_shared<const ReplRecord>(rec));
}

void LsmEngine::ResyncFrom(const LsmEngine& src) {
  mem_ = src.mem_;
  wal_ = src.wal_;
  repl_log_ = src.repl_log_;
  // SSTables are immutable after construction; the runs are shared, so a
  // snapshot resync costs O(runs), not O(bytes) — the tick cost of the
  // transfer is modeled by the caller (catch-up / rebuild ticks).
  levels_ = src.levels_;
  next_seq_ = src.next_seq_;
  next_sst_id_ = src.next_sst_id_;
  stats_.resyncs++;
}

// ---------------------------------------------------------------------------
// Recovery & introspection
// ---------------------------------------------------------------------------

void LsmEngine::CrashAndRecover() {
  mem_ = MemTable();
  if (!options_.enable_wal) return;
  // Replay puts the logged records themselves back, so original sequence
  // numbers (and ordering against flushed runs) are preserved.
  wal_.ForEach([this](const ReplRecordPtr& rec) { mem_.Put(rec); });
}

uint64_t LsmEngine::ApproximateDataBytes() const {
  uint64_t total = mem_.approximate_bytes();
  for (const auto& level : levels_) {
    for (const auto& run : level) total += run->data_bytes();
  }
  return total;
}

std::vector<size_t> LsmEngine::LevelRunCounts() const {
  std::vector<size_t> counts;
  counts.reserve(levels_.size());
  for (const auto& level : levels_) counts.push_back(level.size());
  return counts;
}

double LsmEngine::WriteAmplification() const {
  if (stats_.flushed_bytes == 0) return 0;
  return static_cast<double>(stats_.flushed_bytes +
                             stats_.compaction_write_bytes) /
         static_cast<double>(stats_.flushed_bytes);
}

}  // namespace storage
}  // namespace abase
