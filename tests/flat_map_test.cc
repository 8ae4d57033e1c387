// Unit tests for FlatMap64: the open-addressed request-id map behind
// the data plane's inflight/pending/estimate ledgers. Exercises the
// insert -> find -> erase lifecycle, tombstone reclamation under churn,
// and non-trivial value types.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>

#include "common/flat_map.h"

// FlatMap64 allocates its slot blocks with new[]; counting array
// allocations shows whether a rehash allocated.
static size_t g_array_allocs = 0;
void* operator new[](std::size_t n) {
  ++g_array_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace abase {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  m[7] = 70;
  m[8] = 80;
  m.Insert(9, 90);
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  EXPECT_EQ(*m.Find(9), 90);
  EXPECT_EQ(m.Find(10), nullptr);
  EXPECT_TRUE(m.Erase(8));
  EXPECT_FALSE(m.Erase(8));
  EXPECT_EQ(m.Find(8), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMapTest, SequentialRequestIdChurnMatchesReference) {
  // The data-plane pattern: ids are (tenant << 40) | sequence, inserted
  // and erased in waves. Mirror against std::unordered_map.
  FlatMap64<uint64_t> m;
  std::unordered_map<uint64_t, uint64_t> ref;
  uint64_t next_id = 0;
  for (int wave = 0; wave < 100; wave++) {
    for (int i = 0; i < 200; i++) {
      uint64_t id = (uint64_t{3} << 40) | next_id++;
      m[id] = id * 2;
      ref[id] = id * 2;
    }
    // Erase most of the wave (responses settle), keep stragglers.
    for (auto it = ref.begin(); it != ref.end();) {
      if (it->first % 10 != 0) {
        EXPECT_TRUE(m.Erase(it->first));
        it = ref.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << "wave " << wave;
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.Find(k), nullptr) << k;
    ASSERT_EQ(*m.Find(k), v);
  }
  size_t seen = 0;
  m.ForEach([&](uint64_t k, uint64_t& v) {
    ASSERT_EQ(ref.at(k), v);
    seen++;
  });
  EXPECT_EQ(seen, ref.size());
}

TEST(FlatMapTest, NonTrivialValues) {
  FlatMap64<std::string> m;
  for (uint64_t i = 0; i < 100; i++) {
    m[i] = "value-" + std::to_string(i);
  }
  for (uint64_t i = 0; i < 100; i += 2) EXPECT_TRUE(m.Erase(i));
  for (uint64_t i = 1; i < 100; i += 2) {
    ASSERT_NE(m.Find(i), nullptr);
    EXPECT_EQ(*m.Find(i), "value-" + std::to_string(i));
  }
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Find(1), nullptr);
  m[5] = "after-clear";
  EXPECT_EQ(*m.Find(5), "after-clear");
}

TEST(FlatMapTest, SameCapacityPurgeReusesBlockUnderChurn) {
  // The proxy's RU-estimate ledger pattern: a bounded window of live ids,
  // one insert and one erase per request. Tombstones trigger a purge
  // every few hundred ops, and every purge keeps the capacity.
  FlatMap64<uint64_t> m;
  constexpr uint64_t kWindow = 100;
  uint64_t next = 0;
  auto churn = [&](int ops) {
    for (int i = 0; i < ops; i++) {
      m[next] = next * 3;
      if (next >= kWindow) {
        ASSERT_TRUE(m.Erase(next - kWindow));
      }
      next++;
    }
  };
  churn(2000);  // Grows to working size; the first purge keeps a spare.
  const size_t cap = m.capacity();
  const size_t allocs = g_array_allocs;
  churn(20000);  // ~75 more purges.
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(g_array_allocs, allocs);
  EXPECT_EQ(m.size(), kWindow);
  for (uint64_t k = next - kWindow; k < next; k++) {
    ASSERT_NE(m.Find(k), nullptr) << k;
    EXPECT_EQ(*m.Find(k), k * 3);
  }
  EXPECT_EQ(m.Find(next - kWindow - 1), nullptr);
}

TEST(FlatMapTest, ReserveAvoidsRehash) {
  FlatMap64<int> m;
  m.Reserve(1000);
  size_t cap = m.capacity();
  for (uint64_t i = 0; i < 1000; i++) m[i] = static_cast<int>(i);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.size(), 1000u);
}

TEST(FlatMapTest, MoveTransfersTable) {
  FlatMap64<int> a;
  a[1] = 10;
  a[2] = 20;
  FlatMap64<int> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.Find(2), 20);
  FlatMap64<int> c;
  c[9] = 90;
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Find(9), nullptr);
}

TEST(FlatMapTest, ZeroKeyIsOrdinary) {
  FlatMap64<int> m;
  m[0] = 123;
  ASSERT_NE(m.Find(0), nullptr);
  EXPECT_EQ(*m.Find(0), 123);
  EXPECT_TRUE(m.Erase(0));
  EXPECT_EQ(m.Find(0), nullptr);
}

}  // namespace
}  // namespace abase
