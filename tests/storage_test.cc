// Tests for src/storage: bloom filters, memtable, SSTables, the LSM
// engine (LavaStore stand-in), WAL recovery, and the disk model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/keyspace.h"
#include "common/rng.h"
#include "storage/bloom.h"
#include "storage/disk_model.h"
#include "storage/lsm_engine.h"
#include "storage/memtable.h"
#include "storage/sstable.h"

namespace abase {
namespace storage {
namespace {

// ----------------------------------------------------------------- Bloom --

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bf(1000);
  for (int i = 0; i < 1000; i++) bf.Add("key" + std::to_string(i));
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(bf.MayContain("key" + std::to_string(i)));
  }
}

class BloomFprTest : public ::testing::TestWithParam<int> {};

TEST_P(BloomFprTest, FalsePositiveRateBounded) {
  const int bits_per_key = GetParam();
  BloomFilter bf(2000, bits_per_key);
  for (int i = 0; i < 2000; i++) bf.Add("in" + std::to_string(i));
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; i++) {
    if (bf.MayContain("out" + std::to_string(i))) fp++;
  }
  double fpr = static_cast<double>(fp) / probes;
  // Theoretical FPR ~ 0.61^bits_per_key; allow generous slack.
  double bound = std::pow(0.6185, bits_per_key) * 2.5 + 0.002;
  EXPECT_LT(fpr, bound) << "bits_per_key=" << bits_per_key;
}

INSTANTIATE_TEST_SUITE_P(BitsSweep, BloomFprTest,
                         ::testing::Values(4, 8, 10, 16));

TEST(BloomTest, EmptyFilterRejectsEverything) {
  BloomFilter bf(100);
  EXPECT_FALSE(bf.MayContain("anything"));
}

// -------------------------------------------------------------- MemTable --

TEST(MemTableTest, PutGetReplace) {
  MemTable mt;
  mt.Put(MakeReplRecord("a", ValueEntry::String("1", 1)));
  mt.Put(MakeReplRecord("b", ValueEntry::String("2", 2)));
  ASSERT_NE(mt.Get("a"), nullptr);
  EXPECT_EQ(mt.Get("a")->str, "1");
  mt.Put(MakeReplRecord("a", ValueEntry::String("updated", 3)));
  EXPECT_EQ(mt.Get("a")->str, "updated");
  EXPECT_EQ(mt.entry_count(), 2u);
  EXPECT_EQ(mt.Get("zz"), nullptr);
}

TEST(MemTableTest, ByteAccountingTracksReplacement) {
  MemTable mt;
  mt.Put(MakeReplRecord("k", ValueEntry::String(std::string(100, 'x'), 1)));
  uint64_t b1 = mt.approximate_bytes();
  mt.Put(MakeReplRecord("k", ValueEntry::String(std::string(10, 'x'), 2)));
  uint64_t b2 = mt.approximate_bytes();
  EXPECT_EQ(b1 - b2, 90u);
}

TEST(MemTableTest, TombstonesStored) {
  MemTable mt;
  mt.Put(MakeReplRecord("k", ValueEntry::Tombstone(1)));
  ASSERT_NE(mt.Get("k"), nullptr);
  EXPECT_TRUE(mt.Get("k")->IsTombstone());
}

// The memtable stores the put record itself, and an overwrite re-keys
// the index onto the new record: once nothing else holds the old record
// it is freed, and lookups (which compare against the index key) still
// work — under ASan a key left viewing the freed record would fault.
TEST(MemTableTest, HoldsThePutRecordAndReKeysOnOverwrite) {
  MemTable mt;
  ReplRecordPtr first = MakeReplRecord("k", ValueEntry::String("1", 1));
  mt.Put(first);
  EXPECT_EQ(mt.Get("k"), &first->entry);

  std::weak_ptr<const ReplRecord> old = first;
  first.reset();
  ReplRecordPtr second = MakeReplRecord("k", ValueEntry::String("2", 2));
  mt.Put(second);
  EXPECT_TRUE(old.expired());
  EXPECT_EQ(mt.Get("k"), &second->entry);
  ASSERT_EQ(mt.Sorted().size(), 1u);
  EXPECT_EQ((*mt.Sorted()[0])->entry.str, "2");
}

// Overwrites keep the sorted view: same slot pointers, no re-sort, and
// each slot shows the newest record.
TEST(MemTableTest, OverwriteKeepsSortedSlots) {
  MemTable mt;
  for (const char* k : {"c", "a", "b"}) {
    mt.Put(MakeReplRecord(k, ValueEntry::String("old", 1)));
  }
  const std::vector<const ReplRecordPtr*> before = mt.Sorted();
  mt.Put(MakeReplRecord("b", ValueEntry::String("new", 2)));
  const std::vector<const ReplRecordPtr*>& after = mt.Sorted();
  EXPECT_EQ(after, before);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ((*after[0])->key, "a");
  EXPECT_EQ((*after[1])->key, "b");
  EXPECT_EQ((*after[1])->entry.str, "new");
  EXPECT_EQ((*after[2])->key, "c");
}

// A copied memtable (what ResyncFrom makes) is a snapshot: later writes
// to the source do not reach it, and its sorted view points at its own
// nodes, never at the source's.
TEST(MemTableTest, CopyIsIndependentOfLaterSourceWrites) {
  for (bool assign : {false, true}) {
    MemTable src;
    for (const char* k : {"b", "a", "c"}) {
      src.Put(MakeReplRecord(k, ValueEntry::String("old", 1)));
    }
    (void)src.Sorted();  // Build the view the copy must not inherit.
    MemTable copy;
    if (assign) {
      copy = src;
    } else {
      copy = MemTable(src);
    }
    src.Put(MakeReplRecord("a", ValueEntry::String("new", 2)));
    src.Put(MakeReplRecord("d", ValueEntry::String("new", 3)));

    EXPECT_EQ(copy.entry_count(), 3u);
    EXPECT_EQ(copy.Get("d"), nullptr);
    ASSERT_NE(copy.Get("a"), nullptr);
    EXPECT_EQ(copy.Get("a")->str, "old");
    const auto& mine = copy.Sorted();
    const auto& theirs = src.Sorted();
    ASSERT_EQ(mine.size(), 3u);
    EXPECT_EQ((*mine[0])->key, "a");
    EXPECT_EQ((*mine[0])->entry.str, "old");
    EXPECT_EQ((*mine[2])->key, "c");
    for (const ReplRecordPtr* slot : mine) {
      EXPECT_EQ(std::find(theirs.begin(), theirs.end(), slot), theirs.end())
          << (*slot)->key;
    }
  }
}

// --------------------------------------------------------------- SsTable --

std::vector<ReplRecordPtr> MakeRows(int n) {
  std::vector<ReplRecordPtr> rows;
  for (int i = 0; i < n; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", i);
    rows.push_back(MakeReplRecord(
        buf, ValueEntry::String("v" + std::to_string(i),
                                static_cast<uint64_t>(i + 1))));
  }
  return rows;
}

TEST(SsTableTest, PointLookupChargesOneBlock) {
  SsTable sst(1, MakeRows(100));
  SstProbe p = sst.Get("k00042");
  ASSERT_NE(p.entry, nullptr);
  EXPECT_EQ(p.entry->str, "v42");
  EXPECT_EQ(p.block_reads, 1);
}

TEST(SsTableTest, BloomFiltersOutOfRangeFree) {
  SsTable sst(1, MakeRows(100));
  SstProbe p = sst.Get("zzz");  // Out of key range entirely.
  EXPECT_EQ(p.entry, nullptr);
  EXPECT_EQ(p.block_reads, 0);
}

TEST(SsTableTest, MinMaxKeys) {
  SsTable sst(1, MakeRows(10));
  EXPECT_EQ(sst.min_key(), "k00000");
  EXPECT_EQ(sst.max_key(), "k00009");
  EXPECT_TRUE(sst.KeyInRange("k00005"));
  EXPECT_FALSE(sst.KeyInRange("a"));
}

// ------------------------------------------------------------- MergeRuns --

/// The compaction merge before the k-way heap: every input row copied
/// into a std::map, newest run first (emplace keeps the first version),
/// then one pass in key order applying the bottom-level drop.
std::vector<std::pair<std::string, ValueEntry>> ReferenceMerge(
    const std::vector<SsTablePtr>& runs_newest_first, bool drop_deletes,
    Micros now, uint64_t* expired_dropped) {
  std::map<std::string, ValueEntry> merged;
  for (const auto& run : runs_newest_first) {
    for (const ReplRecordPtr& rec : run->rows()) {
      merged.emplace(rec->key, rec->entry);
    }
  }
  std::vector<std::pair<std::string, ValueEntry>> rows;
  for (auto& [key, entry] : merged) {
    if (drop_deletes && (entry.IsTombstone() || entry.IsExpiredAt(now))) {
      *expired_dropped += entry.IsExpiredAt(now) ? 1 : 0;
      continue;
    }
    rows.emplace_back(key, std::move(entry));
  }
  return rows;
}

class MergeRunsDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MergeRunsDifferentialTest, MatchesMapMerge) {
  Rng rng(GetParam());
  const Micros now = 1000;
  uint64_t seq = 1;
  uint64_t shadowed = 0;
  uint64_t expired = 0;
  for (int trial = 0; trial < 200; trial++) {
    // 1-7 runs (some empty) over a small key space, so keys overlap
    // across runs; every run is sorted with one version per key.
    const int n_runs = 1 + static_cast<int>(rng.NextUint64(7));
    const uint64_t key_space = 2 + rng.NextUint64(60);
    std::vector<std::vector<ReplRecordPtr>> built(n_runs);
    // Oldest run first, so newer runs carry higher sequences.
    for (int r = n_runs - 1; r >= 0; r--) {
      std::map<std::string, ValueEntry> rows;
      const uint64_t n = rng.NextUint64(key_space + 1);
      for (uint64_t i = 0; i < n; i++) {
        std::string key = "k" + std::to_string(rng.NextUint64(key_space));
        ValueEntry e;
        const double kind = rng.NextDouble();
        if (kind < 0.25) {
          e = ValueEntry::Tombstone(0);
        } else {
          // A third of the live values carry a TTL; half of those have
          // elapsed at `now`.
          Micros expire_at = 0;
          if (kind < 0.5) expire_at = rng.NextBool(0.5) ? now - 1 : now + 1;
          e = ValueEntry::String("v" + std::to_string(seq), 0, expire_at);
        }
        e.seq = seq++;
        rows[key] = e;
      }
      for (auto& [key, entry] : rows) {
        built[r].push_back(MakeReplRecord(key, entry));
      }
    }
    std::vector<SsTablePtr> runs;
    for (int r = 0; r < n_runs; r++) {
      runs.push_back(std::make_shared<SsTable>(r + 1, built[r]));
    }
    for (bool drop_deletes : {false, true}) {
      uint64_t got_dropped = 0;
      uint64_t want_dropped = 0;
      const std::vector<ReplRecordPtr> got =
          MergeRuns(runs, drop_deletes, now, &got_dropped);
      const auto want =
          ReferenceMerge(runs, drop_deletes, now, &want_dropped);
      ASSERT_EQ(got.size(), want.size())
          << "trial " << trial << " drop " << drop_deletes;
      for (size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i]->key, want[i].first) << "trial " << trial;
        EXPECT_EQ(got[i]->entry.seq, want[i].second.seq);
        EXPECT_EQ(got[i]->entry.type, want[i].second.type);
        EXPECT_EQ(got[i]->entry.str, want[i].second.str);
        EXPECT_EQ(got[i]->entry.expire_at, want[i].second.expire_at);
      }
      EXPECT_EQ(got_dropped, want_dropped) << "trial " << trial;
      expired += got_dropped;
      if (!drop_deletes) {
        for (const auto& run : runs) shadowed += run->entry_count();
        shadowed -= got.size();
      }
    }
  }
  // The random runs did exercise both drop paths.
  EXPECT_GT(shadowed, 0u);
  EXPECT_GT(expired, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeRunsDifferentialTest,
                         ::testing::Values(11, 12, 13));

// The merge keeps the inputs' records rather than copying them.
TEST(MergeRunsTest, OutputSharesInputRecords) {
  ReplRecordPtr old_a = MakeReplRecord("a", ValueEntry::String("old", 1));
  ReplRecordPtr b = MakeReplRecord("b", ValueEntry::String("b", 2));
  ReplRecordPtr new_a = MakeReplRecord("a", ValueEntry::String("new", 3));
  std::vector<SsTablePtr> runs = {
      std::make_shared<SsTable>(2, std::vector<ReplRecordPtr>{new_a}),
      std::make_shared<SsTable>(1, std::vector<ReplRecordPtr>{old_a, b})};
  uint64_t dropped = 0;
  std::vector<ReplRecordPtr> rows = MergeRuns(runs, false, 0, &dropped);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].get(), new_a.get());
  EXPECT_EQ(rows[1].get(), b.get());
}

// ------------------------------------------------------------- LsmEngine --

class LsmEngineTest : public ::testing::Test {
 protected:
  LsmEngineTest() : clock_(0) {
    LsmOptions opts;
    opts.memtable_flush_bytes = 4096;  // Tiny: force flushes quickly.
    opts.runs_per_level_trigger = 2;
    opts.max_levels = 3;
    engine_ = std::make_unique<LsmEngine>(opts, &clock_);
  }
  SimClock clock_;
  std::unique_ptr<LsmEngine> engine_;
};

TEST_F(LsmEngineTest, PutGetRoundTrip) {
  ASSERT_TRUE(engine_->Put("k1", "hello").ok());
  auto v = engine_->Get("k1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "hello");
}

TEST_F(LsmEngineTest, GetMissingIsNotFound) {
  EXPECT_TRUE(engine_->Get("missing").status().IsNotFound());
}

TEST_F(LsmEngineTest, EmptyKeyRejected) {
  EXPECT_FALSE(engine_->Put("", "v").ok());
  EXPECT_FALSE(engine_->Delete("").ok());
}

TEST_F(LsmEngineTest, DeleteHidesKeyAcrossFlush) {
  ASSERT_TRUE(engine_->Put("k", "v").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Delete("k").ok());
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
  engine_->Flush();
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
}

TEST_F(LsmEngineTest, OverwriteLatestWinsAcrossRuns) {
  ASSERT_TRUE(engine_->Put("k", "v1").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("k", "v2").ok());
  engine_->Flush();
  auto v = engine_->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "v2");
}

TEST_F(LsmEngineTest, TtlExpiresValues) {
  ASSERT_TRUE(engine_->Put("k", "v", 10 * kMicrosPerSecond).ok());
  EXPECT_TRUE(engine_->Get("k").ok());
  clock_.Advance(11 * kMicrosPerSecond);
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
}

TEST_F(LsmEngineTest, ExpireCommandSetsAndClearsTtl) {
  ASSERT_TRUE(engine_->Put("k", "v").ok());
  ASSERT_TRUE(engine_->Expire("k", 5 * kMicrosPerSecond).ok());
  clock_.Advance(6 * kMicrosPerSecond);
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
  EXPECT_TRUE(engine_->Expire("missing", 1).IsNotFound());
}

TEST_F(LsmEngineTest, HashCommands) {
  ASSERT_TRUE(engine_->HSet("h", "f1", "v1").ok());
  ASSERT_TRUE(engine_->HSet("h", "f2", "v2").ok());
  auto f1 = engine_->HGet("h", "f1");
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1.value(), "v1");
  auto len = engine_->HLen("h");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 2u);
  auto all = engine_->HGetAll("h");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 2u);
  const std::string* f2 = storage::FindField(all.value(), "f2");
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(*f2, "v2");
  EXPECT_TRUE(engine_->HGet("h", "zz").status().IsNotFound());
  EXPECT_TRUE(engine_->HLen("nope").status().IsNotFound());
}

TEST_F(LsmEngineTest, HashSurvivesFlushAndUpdates) {
  ASSERT_TRUE(engine_->HSet("h", "f1", "v1").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->HSet("h", "f2", "v2").ok());
  auto all = engine_->HGetAll("h");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 2u);  // f1 merged from the flushed run.
}

TEST_F(LsmEngineTest, ExportHashRangeStreamsResidueInBoundedBatches) {
  // 200 keys spread across memtable and flushed runs; export the keys
  // whose hash lands on residue 1 (mod 2) in throttled batches and
  // re-ingest them into a second engine (the online-split data path).
  std::map<std::string, std::string> expect;
  for (int i = 0; i < 200; i++) {
    std::string key = "split:k" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(engine_->Put(key, value).ok());
    if (Fnv1a64(key) % 2 == 1) expect[key] = value;
  }
  // Deleted and expired residue keys must not move.
  for (int i = 0; i < 200; i += 9) {
    std::string key = "split:k" + std::to_string(i);
    ASSERT_TRUE(engine_->Delete(key).ok());
    expect.erase(key);
  }
  ASSERT_FALSE(expect.empty());

  LsmOptions child_opts;
  LsmEngine child(child_opts, &clock_);
  std::string cursor;
  size_t batches = 0;
  for (;; batches++) {
    ASSERT_LT(batches, 1000u) << "exporter failed to make progress";
    auto batch = engine_->ExportHashRange(2, 1, cursor, /*max_bytes=*/64);
    for (const auto& [key, entry] : batch.entries) {
      EXPECT_EQ(Fnv1a64(key) % 2, 1u) << key;
      child.Ingest(key, entry);
    }
    cursor = batch.next_cursor;
    if (batch.done) break;
  }
  EXPECT_GT(batches, 1u);  // The byte budget actually throttled.

  // The child holds exactly the live residue-1 view, values intact.
  for (const auto& [key, value] : expect) {
    auto got = child.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value) << key;
  }
  for (int i = 0; i < 200; i++) {
    std::string key = "split:k" + std::to_string(i);
    if (expect.count(key) > 0) continue;
    EXPECT_TRUE(child.Get(key).status().IsNotFound()) << key;
  }
}

TEST_F(LsmEngineTest, ExportHashRangeSeesNewestVersionAcrossSources) {
  ASSERT_TRUE(engine_->Put("k", "old").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("k", "new").ok());  // Memtable shadows run.
  const uint64_t residue = Fnv1a64("k") % 2;
  auto batch = engine_->ExportHashRange(2, residue, "", 1 << 20);
  ASSERT_EQ(batch.entries.size(), 1u);
  EXPECT_EQ(batch.entries[0].second.str, "new");
  EXPECT_TRUE(batch.done);
}

TEST_F(LsmEngineTest, FlushAndCompactionProgress) {
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        engine_->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
  }
  EXPECT_GT(engine_->stats().flush_count, 0u);
  EXPECT_GT(engine_->stats().compaction_count, 0u);
  // All data still readable after compactions.
  for (int i = 0; i < 500; i += 37) {
    EXPECT_TRUE(engine_->Get("key" + std::to_string(i)).ok()) << i;
  }
  // Level run counts respect the trigger.
  for (size_t c : engine_->LevelRunCounts()) {
    EXPECT_LE(c, 3u);  // trigger(2) + 1 transient.
  }
}

TEST_F(LsmEngineTest, WriteAmplificationAtLeastOne) {
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(engine_->Put("k" + std::to_string(i % 50),
                             std::string(128, 'a')).ok());
  }
  EXPECT_GE(engine_->WriteAmplification(), 1.0);
}

TEST_F(LsmEngineTest, CrashRecoveryReplaysWal) {
  ASSERT_TRUE(engine_->Put("durable", "yes").ok());
  engine_->CrashAndRecover();
  auto v = engine_->Get("durable");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "yes");
}

TEST(LsmEngineNoWalTest, CrashLosesUnflushedWrites) {
  SimClock clock;
  LsmOptions opts;
  opts.enable_wal = false;
  LsmEngine engine(opts, &clock);
  ASSERT_TRUE(engine.Put("volatile", "gone").ok());
  engine.CrashAndRecover();
  EXPECT_TRUE(engine.Get("volatile").status().IsNotFound());
}

TEST(LsmEngineNoWalTest, CrashKeepsFlushedWrites) {
  SimClock clock;
  LsmOptions opts;
  opts.enable_wal = false;
  LsmEngine engine(opts, &clock);
  ASSERT_TRUE(engine.Put("flushed", "kept").ok());
  engine.Flush();
  ASSERT_TRUE(engine.Put("unflushed", "lost").ok());
  engine.CrashAndRecover();
  EXPECT_TRUE(engine.Get("flushed").ok());
  EXPECT_TRUE(engine.Get("unflushed").status().IsNotFound());
}

TEST(PayloadTest, RunsAndMixedBytesReadBackExactly) {
  const std::string run(200000, 'v');
  std::string mixed = run;
  mixed[123456] = 'w';
  const Payload a(run), b(mixed), c(std::string(10, 'v'));
  EXPECT_EQ(a.size(), run.size());
  EXPECT_EQ(a.ToString(), run);
  EXPECT_EQ(b.ToString(), mixed);
  EXPECT_EQ(c.ToString(), std::string(10, 'v'));
  EXPECT_TRUE(a == run);
  EXPECT_FALSE(a == mixed);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == Payload(run));
  EXPECT_FALSE(a == Payload(std::string(200000, 'x')));
  std::string out = "stale";
  a.CopyTo(&out);
  EXPECT_EQ(out, run);
}

TEST_F(LsmEngineTest, LargeRunValuesSurviveFlushAndScan) {
  const std::string big(300000, 'v');
  std::string odd = big;
  odd.back() = 'x';
  ASSERT_TRUE(engine_->Put("a", big).ok());
  ASSERT_TRUE(engine_->Put("b", odd).ok());
  engine_->Flush();
  EXPECT_EQ(engine_->Get("a").value(), big);
  EXPECT_EQ(engine_->Get("b").value(), odd);
  auto rows = engine_->Scan("a", "c");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].value, big);
  EXPECT_EQ(rows[1].value, odd);
}

TEST_F(LsmEngineTest, ReadIoReportsMemtableVsDisk) {
  ASSERT_TRUE(engine_->Put("hot", "v").ok());
  ReadIo io;
  ASSERT_TRUE(engine_->Get("hot", &io).ok());
  EXPECT_TRUE(io.memtable_hit);
  EXPECT_EQ(io.block_reads, 0);

  engine_->Flush();
  ReadIo io2;
  ASSERT_TRUE(engine_->Get("hot", &io2).ok());
  EXPECT_FALSE(io2.memtable_hit);
  EXPECT_GE(io2.block_reads, 1);
}

TEST_F(LsmEngineTest, BloomAvoidsBlockReadsForMisses) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(engine_->Put("present" + std::to_string(i), "v").ok());
  }
  engine_->Flush();
  uint64_t before = engine_->stats().block_reads;
  for (int i = 0; i < 200; i++) {
    engine_->Get("absent" + std::to_string(i));
  }
  uint64_t blocks = engine_->stats().block_reads - before;
  // ~1% bloom FPR: 200 misses should cost only a handful of block reads.
  EXPECT_LT(blocks, 20u);
}

TEST_F(LsmEngineTest, TombstonesDroppedAtBottomCompaction) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(engine_->Put("k" + std::to_string(i), std::string(64, 'v'))
                    .ok());
  }
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(engine_->Delete("k" + std::to_string(i)).ok());
  }
  // Force everything down to the bottom level.
  for (int round = 0; round < 10; round++) engine_->Flush();
  while (engine_->MaybeCompact()) {
  }
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(engine_->Get("k" + std::to_string(i)).status().IsNotFound());
  }
}

TEST_F(LsmEngineTest, ScanMergesAcrossLevels) {
  ASSERT_TRUE(engine_->Put("scan:a", "1").ok());
  ASSERT_TRUE(engine_->Put("scan:c", "3").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("scan:b", "2").ok());
  ASSERT_TRUE(engine_->Put("scan:c", "3-updated").ok());  // Newer wins.
  auto rows = engine_->Scan("scan:", "scan;~");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "scan:a");
  EXPECT_EQ(rows[1].key, "scan:b");
  EXPECT_EQ(rows[2].key, "scan:c");
  EXPECT_EQ(rows[2].value, "3-updated");
}

TEST_F(LsmEngineTest, ScanSkipsTombstonesAndExpired) {
  ASSERT_TRUE(engine_->Put("s:1", "a").ok());
  ASSERT_TRUE(engine_->Put("s:2", "b").ok());
  ASSERT_TRUE(engine_->Put("s:3", "c", 5 * kMicrosPerSecond).ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Delete("s:2").ok());
  clock_.Advance(6 * kMicrosPerSecond);  // s:3 expires.
  auto rows = engine_->ScanPrefix("s:");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "s:1");
}

TEST_F(LsmEngineTest, ScanHonorsLimitAndOrder) {
  for (int i = 0; i < 50; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE(engine_->Put(buf, "v").ok());
    if (i % 7 == 0) engine_->Flush();
  }
  auto rows = engine_->Scan("k010", "k030", 10);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().key, "k010");
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(rows[i - 1].key, rows[i].key);
  }
}

TEST_F(LsmEngineTest, ScanPrefixMatchesReferenceModel) {
  std::map<std::string, std::string> reference;
  Rng rng(55);
  for (int i = 0; i < 600; i++) {
    std::string key = "p" + std::to_string(rng.NextUint64(3)) + ":" +
                      std::to_string(rng.NextUint64(100));
    if (rng.NextBool(0.8)) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(engine_->Put(key, value).ok());
      reference[key] = value;
    } else {
      ASSERT_TRUE(engine_->Delete(key).ok());
      reference.erase(key);
    }
  }
  for (const char* prefix : {"p0:", "p1:", "p2:"}) {
    auto rows = engine_->ScanPrefix(prefix, 1000);
    std::vector<std::pair<std::string, std::string>> expected;
    for (const auto& [k, v] : reference) {
      if (k.rfind(prefix, 0) == 0) expected.emplace_back(k, v);
    }
    ASSERT_EQ(rows.size(), expected.size()) << prefix;
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_EQ(rows[i].key, expected[i].first);
      EXPECT_EQ(rows[i].value, expected[i].second);
    }
  }
}

TEST_F(LsmEngineTest, ScanEmptyRange) {
  ASSERT_TRUE(engine_->Put("x", "v").ok());
  EXPECT_TRUE(engine_->Scan("y", "z").empty());
  EXPECT_TRUE(engine_->ScanPrefix("nothing").empty());
}

// Regression: a prefix whose last byte is 0xff cannot form its exclusive
// upper bound by bumping that byte (0xff + 1 wraps to 0x00, turning the
// range into an empty or inverted one). PrefixUpperBound must drop the
// trailing 0xff bytes before incrementing, and an all-0xff prefix means
// "to the last key".
TEST_F(LsmEngineTest, ScanPrefixTrailing0xffUpperBound) {
  const std::string ff1 = std::string("p") + '\xff';
  const std::string ff2 = std::string("p") + '\xff' + '\xff';
  ASSERT_TRUE(engine_->Put(ff1 + "a", "1").ok());
  ASSERT_TRUE(engine_->Put(ff2, "2").ok());
  ASSERT_TRUE(engine_->Put("pz", "outside").ok());  // < "p\xff"
  ASSERT_TRUE(engine_->Put("q", "outside").ok());   // >= upper bound "q"
  engine_->Flush();

  EXPECT_EQ(PrefixUpperBound(ff1), "q");
  auto rows = engine_->ScanPrefix(ff1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, ff1 + "a");
  EXPECT_EQ(rows[1].key, ff2);

  // All-0xff prefix: no finite upper bound — scans to the last key.
  const std::string all_ff = std::string("\xff\xff");
  ASSERT_TRUE(engine_->Put(all_ff + "tail", "3").ok());
  EXPECT_EQ(PrefixUpperBound(all_ff), "");
  auto tail = engine_->ScanPrefix(all_ff);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].key, all_ff + "tail");
}

// ScanRange resumption: feeding `next_key` back as the next batch's
// start must walk the whole range exactly once, in order, regardless of
// batch size.
TEST_F(LsmEngineTest, ScanRangeResumesAcrossBatches) {
  for (int i = 0; i < 40; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "r%03d", i);
    ASSERT_TRUE(engine_->Put(buf, "v" + std::to_string(i)).ok());
    if (i % 9 == 0) engine_->Flush();
  }
  ScanBuffer buf;
  std::vector<std::string> seen;
  std::string cursor = "r";
  for (int batches = 0; batches < 100; batches++) {
    buf.Clear();
    ScanResult r = engine_->ScanRange(cursor, "s", 7, buf);
    for (size_t i = 0; i < buf.size(); i++) seen.push_back(buf[i].key);
    if (r.done) break;
    ASSERT_FALSE(r.next_key.empty());
    cursor = r.next_key;
  }
  ASSERT_EQ(seen.size(), 40u);
  for (int i = 0; i < 40; i++) {
    char buf2[16];
    snprintf(buf2, sizeof(buf2), "r%03d", i);
    EXPECT_EQ(seen[static_cast<size_t>(i)], buf2);
  }
}

// A batch that reaches its limit just as an older source's copy of the
// last emitted key comes up has examined that copy: the resume point
// must lie past the key, or the next batch emits it a second time.
TEST_F(LsmEngineTest, ScanRangeResumesPastShadowedDuplicate) {
  ASSERT_TRUE(engine_->Put("d:a", "old").ok());
  ASSERT_TRUE(engine_->Put("d:b", "b").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("d:a", "new").ok());  // Memtable shadows run.
  ScanBuffer buf;
  std::vector<std::string> seen;
  std::string cursor = "d:";
  for (int batches = 0; batches < 10; batches++) {
    buf.Clear();
    ScanResult r = engine_->ScanRange(cursor, "d;", 1, buf);
    for (size_t i = 0; i < buf.size(); i++) {
      seen.push_back(buf[i].key + "=" + buf[i].value);
    }
    if (r.done) break;
    cursor = r.next_key;
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"d:a=new", "d:b=b"}));
}

// A range buried under arbitrarily many tombstones must still yield its
// visible keys in one call (the legacy Scan's per-source over-collect
// cap lost entries here).
TEST_F(LsmEngineTest, ScanRangeTombstoneHeavyStillFindsSurvivors) {
  for (int i = 0; i < 300; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "t%04d", i);
    ASSERT_TRUE(engine_->Put(buf, "v").ok());
    if (i % 31 == 0) engine_->Flush();
  }
  // Delete everything except every 100th key: 297 tombstones in range.
  for (int i = 0; i < 300; i++) {
    if (i % 100 == 0) continue;
    char buf[16];
    snprintf(buf, sizeof(buf), "t%04d", i);
    ASSERT_TRUE(engine_->Delete(buf).ok());
  }
  auto rows = engine_->ScanPrefix("t", 10);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "t0000");
  EXPECT_EQ(rows[1].key, "t0100");
  EXPECT_EQ(rows[2].key, "t0200");
}

// Property test: the engine must agree with an in-memory reference model
// under a randomized op stream, across flushes and compactions.
class LsmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmPropertyTest, MatchesReferenceModel) {
  SimClock clock;
  LsmOptions opts;
  opts.memtable_flush_bytes = 2048;
  opts.runs_per_level_trigger = 2;
  LsmEngine engine(opts, &clock);
  std::map<std::string, std::string> reference;
  Rng rng(GetParam());

  for (int step = 0; step < 2000; step++) {
    std::string key = "k" + std::to_string(rng.NextUint64(200));
    double action = rng.NextDouble();
    if (action < 0.5) {
      std::string value = "v" + std::to_string(rng.NextUint64(100000));
      ASSERT_TRUE(engine.Put(key, value).ok());
      reference[key] = value;
    } else if (action < 0.65) {
      ASSERT_TRUE(engine.Delete(key).ok());
      reference.erase(key);
    } else {
      auto got = engine.Get(key);
      auto ref = reference.find(key);
      if (ref == reference.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << " step " << step;
      } else {
        ASSERT_TRUE(got.ok()) << key << " step " << step;
        EXPECT_EQ(got.value(), ref->second);
      }
    }
    if (step % 500 == 499) engine.CrashAndRecover();  // WAL must cover.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------- DiskModel --

TEST(DiskModelTest, ChargesServiceTime) {
  DiskModel disk;
  Micros t = disk.ChargeRead(10);
  EXPECT_EQ(t, 10 * disk.options().read_service_micros);
  EXPECT_EQ(disk.total_reads(), 10u);
}

TEST(DiskModelTest, CongestionInflatesLatency) {
  DiskOptions opts;
  opts.read_iops_capacity = 1000;
  DiskModel disk(opts);
  Micros base = disk.ChargeRead(1);
  disk.ChargeRead(898);  // ~90% utilization.
  Micros loaded = disk.ChargeRead(1);
  EXPECT_GT(loaded, base);
}

TEST(DiskModelTest, WindowResetRestoresCapacity) {
  DiskOptions opts;
  opts.read_iops_capacity = 100;
  DiskModel disk(opts);
  disk.ChargeRead(100);
  EXPECT_FALSE(disk.CanRead(1));
  disk.ResetWindow();
  EXPECT_TRUE(disk.CanRead(100));
  EXPECT_EQ(disk.total_reads(), 100u);  // Totals persist.
}

TEST(DiskModelTest, ReadWriteIndependentBudgets) {
  DiskOptions opts;
  opts.read_iops_capacity = 10;
  opts.write_iops_capacity = 10;
  DiskModel disk(opts);
  disk.ChargeRead(10);
  EXPECT_FALSE(disk.CanRead(1));
  EXPECT_TRUE(disk.CanWrite(10));
}

// ------------------------------------------------------- Replication log --

TEST(ReplicationLogTest, AppendDeltaAndTruncate) {
  ReplicationLog log;
  for (uint64_t seq = 1; seq <= 5; seq++) {
    log.Append("k" + std::to_string(seq),
               ValueEntry::String("v" + std::to_string(seq), seq));
  }
  EXPECT_EQ(log.first_seq(), 1u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_TRUE(log.Covers(0));

  auto delta = log.Delta(2, 4);  // (2, 4] -> seqs 3 and 4.
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0]->entry.seq, 3u);
  EXPECT_EQ(delta[1]->entry.seq, 4u);

  log.TruncateThrough(3);
  EXPECT_EQ(log.first_seq(), 4u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_FALSE(log.Covers(2));  // Seq 3 is gone; cursor 2 needs it.
  EXPECT_TRUE(log.Covers(3));   // Cursor 3 needs seq 4 onward: retained.
  EXPECT_EQ(log.Delta(3, 5).size(), 2u);

  // Truncating everything leaves a consistent empty log.
  log.TruncateThrough(5);
  EXPECT_EQ(log.record_count(), 0u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.bytes(), 0u);
}

/// Engine options with the replication stream retained (what DataNode
/// uses for hosted replicas).
LsmOptions ReplicatedOptions() {
  LsmOptions opts;
  opts.enable_repl_log = true;
  return opts;
}

TEST(LsmEngineReplicationTest, ReplicaAppliesPrimaryStreamExactly) {
  SimClock clock(0);
  LsmEngine primary(ReplicatedOptions(), &clock);
  LsmEngine replica(ReplicatedOptions(), &clock);

  ASSERT_TRUE(primary.Put("a", "1").ok());
  ASSERT_TRUE(primary.Put("b", "2").ok());
  ASSERT_TRUE(primary.HSet("h", "f", "x").ok());
  ASSERT_TRUE(primary.Delete("a").ok());
  EXPECT_EQ(primary.applied_seq(), 4u);

  for (const ReplRecord* rec :
       primary.repl_log().Delta(replica.applied_seq(),
                                primary.applied_seq())) {
    ASSERT_TRUE(replica.ApplyReplicated(*rec).ok());
  }
  EXPECT_EQ(replica.applied_seq(), primary.applied_seq());
  EXPECT_TRUE(replica.Get("a").status().IsNotFound());  // Tombstone shipped.
  EXPECT_EQ(replica.Get("b").value(), "2");
  EXPECT_EQ(replica.HGet("h", "f").value(), "x");
  EXPECT_EQ(replica.stats().repl_applied, 4u);

  // Out-of-order application is refused (the shipper must resync).
  ReplRecord gap;
  gap.key = "z";
  gap.entry = ValueEntry::String("v", primary.applied_seq() + 5);
  EXPECT_FALSE(replica.ApplyReplicated(gap).ok());
}

TEST(LsmEngineReplicationTest, ReplicaStreamSurvivesCrashRecovery) {
  SimClock clock(0);
  LsmEngine primary(ReplicatedOptions(), &clock);
  LsmEngine replica(ReplicatedOptions(), &clock);
  ASSERT_TRUE(primary.Put("k", "v").ok());
  for (const ReplRecord* rec : primary.repl_log().Delta(0, 1)) {
    ASSERT_TRUE(replica.ApplyReplicated(*rec).ok());
  }
  // Replicated records go through the replica's own WAL: a crash loses
  // nothing and the stream cursor is preserved.
  replica.CrashAndRecover();
  EXPECT_EQ(replica.Get("k").value(), "v");
  EXPECT_EQ(replica.applied_seq(), 1u);
}

TEST(LsmEngineReplicationTest, ResyncFromClonesStateAndCursor) {
  SimClock clock(0);
  LsmOptions small = ReplicatedOptions();
  small.memtable_flush_bytes = 256;  // Force flushed runs into the clone.
  LsmEngine primary(small, &clock);
  LsmEngine replica(small, &clock);

  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(primary.Put("k" + std::to_string(i),
                            std::string(32, 'v')).ok());
  }
  // Diverge the replica, then resync: the snapshot wins wholesale.
  ASSERT_TRUE(replica.Put("divergent", "x").ok());
  replica.ResyncFrom(primary);
  EXPECT_EQ(replica.applied_seq(), primary.applied_seq());
  EXPECT_TRUE(replica.Get("divergent").status().IsNotFound());
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(replica.Get("k" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(replica.stats().resyncs, 1u);

  // The clone keeps streaming: new primary writes apply as a delta.
  ASSERT_TRUE(primary.Put("after", "resync").ok());
  for (const ReplRecord* rec :
       primary.repl_log().Delta(replica.applied_seq(),
                                primary.applied_seq())) {
    ASSERT_TRUE(replica.ApplyReplicated(*rec).ok());
  }
  EXPECT_EQ(replica.Get("after").value(), "resync");
}

/// Ships every record of `primary` the replica has not applied yet.
void Ship(const LsmEngine& primary, LsmEngine* replica) {
  primary.repl_log().ForEachDelta(
      replica->applied_seq(), primary.applied_seq(),
      [replica](const ReplRecordPtr& rec) {
        EXPECT_TRUE(replica->ApplyReplicated(rec).ok());
        return true;
      });
}

/// The newest visible entry for `key` as MultiFind resolves it.
const ValueEntry* Resolve(LsmEngine& engine, std::string_view key) {
  const ValueEntry* entry = nullptr;
  ReadIo io;
  engine.MultiFind(&key, 1, &entry, &io);
  return entry;
}

// One record per write end to end: a shipped write that both engines
// flush and compact resolves to the very same ValueEntry on the primary
// and on the replica — the logs, memtables, runs and merge outputs of
// both engines all hold the primary's record.
TEST(LsmEngineSharingTest, ReplicaResolvesToPrimaryRecordAfterCompaction) {
  SimClock clock(0);
  LsmOptions opts = ReplicatedOptions();
  opts.runs_per_level_trigger = 1;
  opts.max_levels = 3;
  LsmEngine primary(opts, &clock);
  LsmEngine replica(opts, &clock);
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(primary.Put("k" + std::to_string(i),
                              "v" + std::to_string(round))
                      .ok());
    }
    Ship(primary, &replica);
    primary.Flush();
    replica.Flush();
    primary.TruncateReplLogThrough(replica.applied_seq());
  }
  EXPECT_GT(primary.stats().compaction_count, 0u);
  EXPECT_EQ(replica.stats().compaction_count,
            primary.stats().compaction_count);
  EXPECT_EQ(replica.LevelRunCounts(), primary.LevelRunCounts());
  for (int i = 0; i < 10; i++) {
    const std::string key = "k" + std::to_string(i);
    const ValueEntry* p = Resolve(primary, key);
    ASSERT_NE(p, nullptr) << key;
    EXPECT_EQ(p->str, "v5");
    EXPECT_EQ(Resolve(replica, key), p) << key;
  }
}

// A resynced replica's memtable is a snapshot of the primary's: writes
// the primary takes afterwards (new keys and overwrites) stay invisible
// to the replica's scans and reads until they are shipped.
TEST(LsmEngineSharingTest, ResyncedMemtableIgnoresLaterPrimaryWrites) {
  SimClock clock(0);
  LsmEngine primary(ReplicatedOptions(), &clock);
  LsmEngine replica(ReplicatedOptions(), &clock);
  for (const char* k : {"s:b", "s:a", "s:c"}) {
    ASSERT_TRUE(primary.Put(k, "old").ok());
  }
  ASSERT_EQ(primary.ScanPrefix("s:").size(), 3u);  // Builds the view.
  replica.ResyncFrom(primary);
  ASSERT_TRUE(primary.Put("s:aa", "new").ok());
  ASSERT_TRUE(primary.Put("s:b", "new").ok());

  auto rows = replica.ScanPrefix("s:");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "s:a");
  EXPECT_EQ(rows[1].key, "s:b");
  EXPECT_EQ(rows[1].value, "old");
  EXPECT_EQ(rows[2].key, "s:c");
  EXPECT_TRUE(replica.Get("s:aa").status().IsNotFound());
  EXPECT_EQ(primary.ScanPrefix("s:").size(), 4u);

  Ship(primary, &replica);
  EXPECT_EQ(replica.ScanPrefix("s:").size(), 4u);
  EXPECT_EQ(replica.Get("s:b").value(), "new");
}

// Crash recovery rebuilds the memtable from the WAL's own records: the
// visible state is the same, and memtable-resident keys resolve to the
// very entries they resolved to before the crash.
TEST(LsmEngineSharingTest, CrashRecoveryRestoresTheLoggedRecords) {
  SimClock clock(0);
  LsmOptions opts;
  opts.memtable_flush_bytes = 1024;
  opts.runs_per_level_trigger = 2;
  LsmEngine engine(opts, &clock);
  Rng rng(7);
  for (int i = 0; i < 300; i++) {
    const std::string key = "r:" + std::to_string(rng.NextUint64(40));
    if (rng.NextBool(0.2)) {
      ASSERT_TRUE(engine.Delete(key).ok());
    } else if (rng.NextBool(0.2)) {
      ASSERT_TRUE(engine.HSet(key, "f", std::to_string(i)).ok());
    } else {
      ASSERT_TRUE(engine.Put(key, std::to_string(i)).ok());
    }
  }
  ASSERT_GT(engine.stats().flush_count, 0u);
  ASSERT_GT(engine.memtable_bytes(), 0u);
  const auto before = engine.ScanPrefix("r:", 1000);
  std::vector<const ValueEntry*> entries_before;
  for (int k = 0; k < 40; k++) {
    entries_before.push_back(Resolve(engine, "r:" + std::to_string(k)));
  }
  const uint64_t mem_bytes = engine.memtable_bytes();

  engine.CrashAndRecover();
  EXPECT_EQ(engine.memtable_bytes(), mem_bytes);
  const auto after = engine.ScanPrefix("r:", 1000);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); i++) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].value, before[i].value);
  }
  for (int k = 0; k < 40; k++) {
    EXPECT_EQ(Resolve(engine, "r:" + std::to_string(k)),
              entries_before[static_cast<size_t>(k)])
        << k;
  }
}

}  // namespace
}  // namespace storage
}  // namespace abase
