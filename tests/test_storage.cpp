// Tests for the storage layer: Env I/O accounting, block cache, B+-tree.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "storage/block_cache.hpp"
#include "storage/btree.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"
#include "util/serde.hpp"

namespace bs = backlog::storage;
namespace bu = backlog::util;

namespace {
std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}
}  // namespace

TEST(Env, CreateWriteReadDelete) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("a.bin");
    const std::vector<std::uint8_t> data(100, 0xab);
    f->append(data);
    f->sync();
  }
  EXPECT_TRUE(env.file_exists("a.bin"));
  EXPECT_EQ(env.file_size("a.bin"), 100u);
  {
    auto f = env.open_file("a.bin");
    std::vector<std::uint8_t> buf(100);
    f->read(0, buf);
    EXPECT_EQ(buf[0], 0xab);
    EXPECT_EQ(buf[99], 0xab);
  }
  env.delete_file("a.bin");
  EXPECT_FALSE(env.file_exists("a.bin"));
  EXPECT_EQ(env.stats().files_created, 1u);
  EXPECT_EQ(env.stats().files_deleted, 1u);
}

TEST(Env, PageWriteAccounting) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  auto f = env.create_file("pages.bin");
  const auto before = env.stats();
  std::vector<std::uint8_t> one_page(bs::kPageSize, 1);
  f->append(one_page);
  EXPECT_EQ((env.stats() - before).page_writes, 1u);
  std::vector<std::uint8_t> three_pages(3 * bs::kPageSize, 2);
  f->append(three_pages);
  EXPECT_EQ((env.stats() - before).page_writes, 4u);
  // A small append to a page-aligned tail touches exactly one page.
  std::vector<std::uint8_t> tiny(10, 3);
  f->append(tiny);
  EXPECT_EQ((env.stats() - before).page_writes, 5u);
  // Appending again rewrites the partial tail page (charged again).
  f->append(tiny);
  EXPECT_EQ((env.stats() - before).page_writes, 6u);
}

TEST(Env, PageReadAccounting) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("r.bin");
    std::vector<std::uint8_t> data(4 * bs::kPageSize, 7);
    f->append(data);
  }
  auto f = env.open_file("r.bin");
  const auto before = env.stats();
  std::vector<std::uint8_t> page(bs::kPageSize);
  f->read_page(2, page);
  EXPECT_EQ((env.stats() - before).page_reads, 1u);
  // A read spanning a page boundary costs two page reads.
  std::vector<std::uint8_t> cross(100);
  f->read(bs::kPageSize - 50, cross);
  EXPECT_EQ((env.stats() - before).page_reads, 3u);
}

TEST(Env, ListFilesSorted) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  env.create_file("b")->close();
  env.create_file("a")->close();
  env.create_file("c")->close();
  const auto names = env.list_files();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[2], "c");
}

TEST(Env, RenameIsAtomicReplacement) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("x.tmp");
    f->append(bytes({1, 2, 3}));
  }
  env.rename_file("x.tmp", "x");
  EXPECT_FALSE(env.file_exists("x.tmp"));
  EXPECT_TRUE(env.file_exists("x"));
  EXPECT_EQ(env.file_size("x"), 3u);
}

TEST(Env, OpenMissingFileThrows) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  EXPECT_THROW(env.open_file("nope"), std::system_error);
  EXPECT_THROW(env.delete_file("nope"), std::runtime_error);
}

TEST(BlockCache, HitsAvoidIo) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("c.bin");
    std::vector<std::uint8_t> data(4 * bs::kPageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(i / bs::kPageSize);
    f->append(data);
  }
  auto f = env.open_file("c.bin");
  bs::BlockCache cache(16 * bs::kPageSize, /*shards=*/1);
  const auto before = env.stats();
  auto p0 = cache.get(*f, 0);
  EXPECT_EQ((*p0)[0], 0);
  auto p1 = cache.get(*f, 1);
  EXPECT_EQ((*p1)[0], 1);
  EXPECT_EQ((env.stats() - before).page_reads, 2u);
  // Second access: cache hit, no additional I/O.
  auto p0b = cache.get(*f, 0);
  EXPECT_EQ((env.stats() - before).page_reads, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BlockCache, EvictsLruAtCapacity) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("c.bin");
    std::vector<std::uint8_t> data(8 * bs::kPageSize, 5);
    f->append(data);
  }
  auto f = env.open_file("c.bin");
  bs::BlockCache cache(2 * bs::kPageSize, /*shards=*/1);
  cache.get(*f, 0);
  cache.get(*f, 1);
  cache.get(*f, 2);  // evicts page 0
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto before = env.stats();
  cache.get(*f, 0);  // miss again
  EXPECT_EQ((env.stats() - before).page_reads, 1u);
}

TEST(BlockCache, ClearAndEraseFile) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("c.bin");
    std::vector<std::uint8_t> data(2 * bs::kPageSize, 9);
    f->append(data);
  }
  auto f = env.open_file("c.bin");
  bs::BlockCache cache(8 * bs::kPageSize, /*shards=*/1);
  cache.get(*f, 0);
  cache.get(*f, 1);
  cache.erase_file(f->dev(), f->ino());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  cache.get(*f, 0);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(BlockCache, ZeroCapacityAlwaysReads) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    auto f = env.create_file("c.bin");
    std::vector<std::uint8_t> data(bs::kPageSize, 1);
    f->append(data);
  }
  auto f = env.open_file("c.bin");
  bs::BlockCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const auto before = env.stats();
  cache.get(*f, 0);
  cache.get(*f, 0);
  EXPECT_EQ((env.stats() - before).page_reads, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(BlockCache, HardLinksShareEntriesAcrossEnvs) {
  // The CoW-clone payoff: two volumes hard-linking the same run file get
  // one cache entry per page, because the key is (device, inode, page), not
  // the opening Env or path.
  bs::TempDir dir_a;
  bs::TempDir dir_b;
  bs::Env env_a(dir_a.path());
  bs::Env env_b(dir_b.path());
  {
    auto f = env_a.create_file("shared.run");
    std::vector<std::uint8_t> data(2 * bs::kPageSize, 0x5e);
    f->append(data);
    f->sync();
  }
  env_a.link_file_to("shared.run", dir_b.path());
  auto fa = env_a.open_file("shared.run");
  auto fb = env_b.open_file("shared.run");
  EXPECT_EQ(fa->ino(), fb->ino());
  bs::BlockCache cache(16 * bs::kPageSize, /*shards=*/1);
  cache.get(*fa, 0);
  const auto before = env_b.stats();
  auto p = cache.get(*fb, 0);  // hit: same (dev, ino, page)
  EXPECT_EQ((*p)[0], 0x5e);
  EXPECT_EQ((env_b.stats() - before).page_reads, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(BlockCache, EnvUnlinkInvalidatesLastLinkOnly) {
  // Deleting one of two hard links keeps the pages (the bytes are still
  // live under the other link); deleting the last link drops them, so a
  // recycled inode can never serve another file's stale bytes.
  bs::TempDir dir_a;
  bs::TempDir dir_b;
  bs::Env env_a(dir_a.path());
  bs::Env env_b(dir_b.path());
  bs::BlockCache cache(16 * bs::kPageSize, /*shards=*/1);
  env_a.set_block_cache(&cache);
  env_b.set_block_cache(&cache);
  {
    auto f = env_a.create_file("shared.run");
    std::vector<std::uint8_t> data(bs::kPageSize, 0x11);
    f->append(data);
    f->sync();
  }
  env_a.link_file_to("shared.run", dir_b.path());
  {
    auto f = env_a.open_file("shared.run");
    cache.get(*f, 0);
  }
  env_a.delete_file("shared.run");  // nlink 2 -> 1: entries survive
  EXPECT_EQ(cache.stats().entries, 1u);
  env_b.delete_file("shared.run");  // last link: entries dropped
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

// --- B+-tree -----------------------------------------------------------------

namespace {
std::vector<std::uint8_t> key8(std::uint64_t k) {
  std::vector<std::uint8_t> out(8);
  bu::put_be64(out.data(), k);
  return out;
}
std::vector<std::uint8_t> val8(std::uint64_t v) {
  std::vector<std::uint8_t> out(8);
  bu::put_u64(out.data(), v);
  return out;
}
}  // namespace

TEST(BTree, PutGetEraseBasics) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BTree tree(env, "t.btree", 8, 8);
  EXPECT_TRUE(tree.put(key8(5), val8(50)));
  EXPECT_TRUE(tree.put(key8(3), val8(30)));
  EXPECT_FALSE(tree.put(key8(5), val8(55)));  // overwrite
  ASSERT_TRUE(tree.get(key8(5)).has_value());
  EXPECT_EQ(bu::get_u64(tree.get(key8(5))->data()), 55u);
  EXPECT_FALSE(tree.get(key8(4)).has_value());
  EXPECT_TRUE(tree.erase(key8(3)));
  EXPECT_FALSE(tree.erase(key8(3)));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTree, SplitsGrowHeight) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BTree tree(env, "t.btree", 8, 8);
  // 255 records/leaf at 16-byte slots; 100k records forces height >= 3.
  const std::uint64_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) tree.put(key8(i * 7 % n), val8(i));
  EXPECT_EQ(tree.size(), n);
  EXPECT_GE(tree.stats().height, 3u);
  for (std::uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree.get(key8(k)).has_value()) << "missing key " << k;
  }
}

TEST(BTree, CursorScansInOrder) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BTree tree(env, "t.btree", 8, 8);
  for (std::uint64_t k = 0; k < 1000; ++k) tree.put(key8(k * 2), val8(k));
  // Full scan.
  std::uint64_t expect = 0, count = 0;
  for (auto c = tree.begin(); c.valid(); c.next()) {
    EXPECT_EQ(bu::get_be64(c.key().data()), expect);
    expect += 2;
    ++count;
  }
  EXPECT_EQ(count, 1000u);
  // Seek to a present key, a missing key, and past the end.
  auto c = tree.seek(key8(500));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(bu::get_be64(c.key().data()), 500u);
  c = tree.seek(key8(501));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(bu::get_be64(c.key().data()), 502u);
  c = tree.seek(key8(99999));
  EXPECT_FALSE(c.valid());
}

TEST(BTree, PersistsAcrossReopen) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bs::BTree tree(env, "t.btree", 8, 8);
    for (std::uint64_t k = 0; k < 5000; ++k) tree.put(key8(k), val8(k * 10));
    tree.flush();
  }
  bs::BTree tree(env, "t.btree", 8, 8);
  EXPECT_EQ(tree.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; k += 7) {
    auto v = tree.get(key8(k));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(bu::get_u64(v->data()), k * 10);
  }
}

TEST(BTree, ReopenWithWrongGeometryThrows) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  {
    bs::BTree tree(env, "t.btree", 8, 8);
    tree.put(key8(1), val8(1));
    tree.flush();
  }
  EXPECT_THROW(bs::BTree(env, "t.btree", 16, 8), std::runtime_error);
}

TEST(BTree, BoundedCacheStillCorrect) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  // Tiny cache (8 pages) forces eviction + write-back mid-workload.
  bs::BTree tree(env, "t.btree", 8, 8, /*cache_pages=*/8);
  const std::uint64_t n = 20000;
  for (std::uint64_t k = 0; k < n; ++k) tree.put(key8(k), val8(k));
  for (std::uint64_t k = 0; k < n; k += 13) {
    auto v = tree.get(key8(k));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(bu::get_u64(v->data()), k);
  }
  // Eviction must have produced real I/O.
  EXPECT_GT(env.stats().page_writes, 0u);
  EXPECT_GT(env.stats().page_reads, 0u);
}

TEST(BTree, RandomizedAgainstStdMapOracle) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BTree tree(env, "t.btree", 8, 8, 64);
  std::map<std::uint64_t, std::uint64_t> oracle;
  bu::Rng rng(12345);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t k = rng.below(5000);
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t v = rng.next();
        tree.put(key8(k), val8(v));
        oracle[k] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(tree.erase(key8(k)), oracle.erase(k) > 0);
        break;
      }
      default: {
        auto got = tree.get(key8(k));
        auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          EXPECT_EQ(bu::get_u64(got->data()), it->second);
        }
      }
    }
  }
  EXPECT_EQ(tree.size(), oracle.size());
  // Final full-scan equivalence.
  auto it = oracle.begin();
  for (auto c = tree.begin(); c.valid(); c.next(), ++it) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(bu::get_be64(c.key().data()), it->first);
    EXPECT_EQ(bu::get_u64(c.value().data()), it->second);
  }
  EXPECT_EQ(it, oracle.end());
}

TEST(BTree, WrongKeySizeArgumentsThrow) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BTree tree(env, "t.btree", 8, 8);
  std::vector<std::uint8_t> short_key(4, 0);
  EXPECT_THROW(tree.put(short_key, val8(0)), std::invalid_argument);
  EXPECT_THROW(tree.get(short_key), std::invalid_argument);
  EXPECT_THROW(tree.erase(short_key), std::invalid_argument);
}

TEST(BTree, ZeroValueSizeSupported) {
  // A pure key-set tree (value_size = 0) must work: the naive baseline's
  // live-record scan relies on prefix seeks over such shapes.
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BTree tree(env, "t.btree", 8, 0);
  std::vector<std::uint8_t> empty;
  for (std::uint64_t k = 0; k < 1000; ++k) tree.put(key8(k), empty);
  EXPECT_TRUE(tree.get(key8(500)).has_value());
  EXPECT_EQ(tree.get(key8(500))->size(), 0u);
}
