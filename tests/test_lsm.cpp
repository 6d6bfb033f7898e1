// Tests for the LSM layer: run files (bottom-up B-trees), merges, deletion
// vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "lsm/deletion_vector.hpp"
#include "lsm/merge.hpp"
#include "lsm/run_file.hpp"
#include "storage/env.hpp"
#include "util/random.hpp"
#include "util/serde.hpp"

namespace bl = backlog::lsm;
namespace bs = backlog::storage;
namespace bu = backlog::util;

namespace {

constexpr std::size_t kRec = 16;  // test records: [be64 key][be64 payload]

std::vector<std::uint8_t> rec(std::uint64_t key, std::uint64_t payload = 0) {
  std::vector<std::uint8_t> out(kRec);
  bu::put_be64(out.data(), key);
  bu::put_be64(out.data() + 8, payload);
  return out;
}

/// Writes n sorted records with keys = base + i*stride; returns their keys.
std::vector<std::uint64_t> write_run(bs::Env& env, const std::string& name,
                                     std::uint64_t n, std::uint64_t base = 0,
                                     std::uint64_t stride = 1) {
  bl::RunWriter w(env, name, kRec, n);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t k = base + i * stride;
    w.add(rec(k, i), k);
    keys.push_back(k);
  }
  w.finish();
  return keys;
}

std::vector<std::uint64_t> collect_keys(bl::RecordStream& s) {
  std::vector<std::uint64_t> out;
  while (s.valid()) {
    out.push_back(bu::get_be64(s.record().data()));
    s.next();
  }
  return out;
}

}  // namespace

// Parameterized over run sizes that hit the interesting shapes: empty,
// single record, exactly one leaf page (256 recs at 16 B), one-over, and
// multi-level index (> 256 leaf pages -> 2 index levels).
class RunFileSizes : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Shapes, RunFileSizes,
                         ::testing::Values(0, 1, 255, 256, 257, 4096, 70000));

TEST_P(RunFileSizes, RoundTripAndLowerBound) {
  const std::uint64_t n = GetParam();
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(1024 * bs::kPageSize);
  write_run(env, "r.run", n, /*base=*/10, /*stride=*/3);
  bl::RunFile run(env, "r.run", cache);
  EXPECT_EQ(run.record_count(), n);

  // Full scan returns everything in order.
  auto s = run.scan();
  const auto keys = collect_keys(*s);
  ASSERT_EQ(keys.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(keys[i], 10 + i * 3);

  if (n == 0) {
    std::uint8_t p[8];
    bu::put_be64(p, 0);
    EXPECT_EQ(run.lower_bound({p, 8}), 0u);
    return;
  }
  EXPECT_EQ(bu::get_be64(run.min_record()->data()), 10u);
  EXPECT_EQ(bu::get_be64(run.max_record()->data()), 10 + (n - 1) * 3);

  // lower_bound agrees with the definition at boundaries, between keys and
  // beyond the ends.
  auto lb = [&](std::uint64_t key) {
    std::uint8_t p[8];
    bu::put_be64(p, key);
    return run.lower_bound({p, 8});
  };
  EXPECT_EQ(lb(0), 0u);
  EXPECT_EQ(lb(10), 0u);
  EXPECT_EQ(lb(11), 1u);    // between key 10 and 13
  EXPECT_EQ(lb(13), 1u);
  EXPECT_EQ(lb(10 + (n - 1) * 3), n - 1);
  EXPECT_EQ(lb(10 + (n - 1) * 3 + 1), n);
  // Random probes against the analytic answer.
  bu::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t probe = rng.below(10 + n * 3 + 20);
    const std::uint64_t want =
        probe <= 10 ? 0
                    : std::min<std::uint64_t>(n, (probe - 10 + 2) / 3);
    EXPECT_EQ(lb(probe), want) << "probe=" << probe;
  }
}

TEST(RunFile, SeekStreamsFromPrefix) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(1024 * bs::kPageSize);
  write_run(env, "r.run", 1000, 0, 2);  // keys 0,2,...,1998
  bl::RunFile run(env, "r.run", cache);
  std::uint8_t p[8];
  bu::put_be64(p, 500);
  auto s = run.seek({p, 8});
  ASSERT_TRUE(s->valid());
  EXPECT_EQ(bu::get_be64(s->record().data()), 500u);
}

TEST(RunFile, RejectsUnsortedInput) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bl::RunWriter w(env, "r.run", kRec, 10);
  w.add(rec(5), 5);
  EXPECT_THROW(w.add(rec(4), 4), std::logic_error);
}

TEST(RunFile, DuplicateKeysAllowed) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  bl::RunWriter w(env, "r.run", kRec, 10);
  w.add(rec(7, 1), 7);
  w.add(rec(7, 2), 7);
  w.add(rec(7, 3), 7);
  w.finish();
  bl::RunFile run(env, "r.run", cache);
  std::uint8_t p[8];
  bu::put_be64(p, 7);
  EXPECT_EQ(run.lower_bound({p, 8}), 0u);  // first of the duplicates
  auto s = run.scan();
  EXPECT_EQ(collect_keys(*s).size(), 3u);
}

TEST(RunFile, BloomFilterSkipsAbsentKeys) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_run(env, "r.run", 1000, 0, 10);  // keys 0,10,20,...
  bl::RunFile run(env, "r.run", cache);
  for (std::uint64_t k = 0; k < 10000; k += 10) {
    EXPECT_TRUE(run.may_contain(k));  // no false negatives
  }
  std::size_t fp = 0;
  for (std::uint64_t k = 1'000'000; k < 1'010'000; ++k) {
    if (run.may_contain(k)) ++fp;
  }
  EXPECT_LT(fp, 600u);  // ~2.4% expected -> allow 6%
}

TEST(RunFile, BloomShrinksForSmallRuns) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  // expected 32000 keys but only 10 added: filter must have been halved down.
  bl::RunWriter w(env, "r.run", kRec, 32000);
  for (std::uint64_t i = 0; i < 10; ++i) w.add(rec(i), i);
  w.finish();
  bl::RunFile run(env, "r.run", cache);
  EXPECT_LE(run.bloom().bit_count(), 128u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(run.may_contain(i));
}

TEST(RunFile, WriterProducesNoReads) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  const auto before = env.stats();
  write_run(env, "r.run", 50000);
  const auto delta = env.stats() - before;
  EXPECT_EQ(delta.page_reads, 0u);  // §5.1: bottom-up build, zero reads
  EXPECT_GT(delta.page_writes, 0u);
}

TEST(RunFile, StreamFromMidpoint) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_run(env, "r.run", 1000);
  bl::RunFile run(env, "r.run", cache);
  auto s = run.stream_from(990);
  EXPECT_EQ(collect_keys(*s).size(), 10u);
}

TEST(VectorStream, BasicIteration) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k : {1, 5, 9}) {
    auto r = rec(k);
    buf.insert(buf.end(), r.begin(), r.end());
  }
  bl::VectorStream s(std::move(buf), kRec);
  EXPECT_EQ(collect_keys(s), (std::vector<std::uint64_t>{1, 5, 9}));
}

TEST(Merge, InterleavesSortedInputs) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  bs::BlockCache cache(64 * bs::kPageSize);
  write_run(env, "a.run", 100, 0, 3);   // 0,3,6,...
  write_run(env, "b.run", 100, 1, 3);   // 1,4,7,...
  write_run(env, "c.run", 100, 2, 3);   // 2,5,8,...
  bl::RunFile a(env, "a.run", cache), b(env, "b.run", cache),
      c(env, "c.run", cache);
  std::vector<std::unique_ptr<bl::RecordStream>> inputs;
  inputs.push_back(a.scan());
  inputs.push_back(b.scan());
  inputs.push_back(c.scan());
  bl::MergeStream m(std::move(inputs), kRec);
  const auto keys = collect_keys(m);
  ASSERT_EQ(keys.size(), 300u);
  for (std::uint64_t i = 0; i < 300; ++i) EXPECT_EQ(keys[i], i);
}

TEST(Merge, KeepsDuplicatesAcrossInputs) {
  std::vector<std::unique_ptr<bl::RecordStream>> inputs;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint8_t> buf;
    auto r = rec(42, rep);
    buf.insert(buf.end(), r.begin(), r.end());
    inputs.push_back(std::make_unique<bl::VectorStream>(std::move(buf), kRec));
  }
  bl::MergeStream m(std::move(inputs), kRec);
  EXPECT_EQ(collect_keys(m).size(), 3u);
}

TEST(Merge, HandlesEmptyAndNullInputs) {
  std::vector<std::unique_ptr<bl::RecordStream>> inputs;
  inputs.push_back(nullptr);
  inputs.push_back(std::make_unique<bl::VectorStream>(std::vector<std::uint8_t>{},
                                                      kRec));
  std::vector<std::uint8_t> buf = rec(1);
  inputs.push_back(std::make_unique<bl::VectorStream>(buf, kRec));
  bl::MergeStream m(std::move(inputs), kRec);
  EXPECT_EQ(collect_keys(m), std::vector<std::uint64_t>{1});
}

TEST(Merge, DedupStreamCollapsesExactDuplicates) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k : {1, 1, 1, 2, 3, 3}) {
    auto r = rec(k, 0);
    buf.insert(buf.end(), r.begin(), r.end());
  }
  auto inner = std::make_unique<bl::VectorStream>(std::move(buf), kRec);
  bl::DedupStream d(std::move(inner), kRec);
  EXPECT_EQ(collect_keys(d), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(DeletionVector, InsertContainsErase) {
  bl::DeletionVector dv(kRec);
  const auto r1 = rec(10), r2 = rec(20);
  EXPECT_FALSE(dv.contains(r1));
  dv.insert(r1);
  EXPECT_TRUE(dv.contains(r1));
  EXPECT_FALSE(dv.contains(r2));
  EXPECT_TRUE(dv.erase(r1));
  EXPECT_FALSE(dv.erase(r1));
  EXPECT_TRUE(dv.empty());
}

TEST(DeletionVector, FilteredStreamHidesEntries) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k : {1, 2, 3, 4, 5}) {
    auto r = rec(k);
    buf.insert(buf.end(), r.begin(), r.end());
  }
  bl::DeletionVector dv(kRec);
  dv.insert(rec(1));  // first (tests skip-at-init)
  dv.insert(rec(3));  // middle
  dv.insert(rec(5));  // last
  auto inner = std::make_unique<bl::VectorStream>(std::move(buf), kRec);
  bl::FilteredStream f(std::move(inner), dv);
  EXPECT_EQ(collect_keys(f), (std::vector<std::uint64_t>{2, 4}));
}

TEST(DeletionVector, EraseBlockRange) {
  bl::DeletionVector dv(kRec);
  for (std::uint64_t k : {5, 10, 15, 20, 25}) dv.insert(rec(k));
  EXPECT_EQ(dv.erase_block_range(10, 21), 3u);
  EXPECT_EQ(dv.size(), 2u);
  EXPECT_TRUE(dv.contains(rec(5)));
  EXPECT_TRUE(dv.contains(rec(25)));
}

// --- corrupt-run-file hardening ----------------------------------------------
// The footer is untrusted input: every field a bit flip can reach must either
// be rejected at open or lead to a well-defined (possibly wrong, never
// crashing) read. These tests patch bytes on disk directly.

namespace {

// Footer field offsets within the final page (mirror run_file.cpp).
constexpr std::uint64_t kFtRecordSize = 8;
constexpr std::uint64_t kFtRecordCount = 16;
constexpr std::uint64_t kFtLeafPages = 24;
constexpr std::uint64_t kFtLevelCount = 32;
constexpr std::uint64_t kFtBloomOffset = 40;
constexpr std::uint64_t kFtBloomSize = 48;
constexpr std::uint64_t kFtLevels = 56;

std::uint64_t footer_start(const std::filesystem::path& file) {
  return std::filesystem::file_size(file) - bs::kPageSize;
}

void poke_u64(const std::filesystem::path& file, std::uint64_t off,
              std::uint64_t value) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::uint8_t buf[8];
  bu::put_u64(buf, value);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(reinterpret_cast<const char*>(buf), 8);
}

void flip_bit(const std::filesystem::path& file, std::uint64_t off, int bit) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(off));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(off));
  f.write(&b, 1);
}

}  // namespace

TEST(RunFile, CorruptFooterFieldsRejected) {
  bs::TempDir dir;
  bs::Env env(dir.path());
  write_run(env, "r.run", 600);  // 2+ leaf pages -> one index level
  const std::filesystem::path file =
      std::filesystem::path(dir.path()) / "r.run";
  const std::filesystem::path pristine =
      std::filesystem::path(dir.path()) / "pristine.bin";
  std::filesystem::copy_file(file, pristine);
  const std::uint64_t fs = footer_start(file);

  const auto expect_rejected = [&](std::uint64_t field, std::uint64_t value) {
    std::filesystem::copy_file(pristine, file,
                               std::filesystem::copy_options::overwrite_existing);
    poke_u64(file, fs + field, value);
    bs::BlockCache cache(16 * bs::kPageSize);
    EXPECT_THROW(bl::RunFile(env, "r.run", cache), std::runtime_error)
        << "field offset " << field << " value " << value;
  };

  expect_rejected(kFtRecordSize, 0);          // division by zero otherwise
  expect_rejected(kFtRecordSize, 2000);       // over the writer's 1024 cap
  expect_rejected(kFtRecordSize, UINT64_MAX);
  expect_rejected(kFtRecordCount, UINT64_MAX);     // over leaf capacity
  expect_rejected(kFtLeafPages, UINT64_MAX);       // past the file
  expect_rejected(kFtLevelCount, 9);               // over kMaxLevels
  expect_rejected(kFtLevelCount, UINT64_MAX);
  expect_rejected(kFtBloomOffset, UINT64_MAX);     // past the file
  expect_rejected(kFtBloomSize, UINT64_MAX);       // offset+size would wrap
  expect_rejected(kFtLevels, UINT64_MAX);          // level 0 start page
  expect_rejected(kFtLevels + 8, UINT64_MAX);      // level 0 page count
  expect_rejected(kFtLevels + 16, UINT64_MAX);     // level 0 entry count

  // And the pristine file still opens after all that.
  std::filesystem::copy_file(pristine, file,
                             std::filesystem::copy_options::overwrite_existing);
  bs::BlockCache cache(16 * bs::kPageSize);
  bl::RunFile run(env, "r.run", cache);
  EXPECT_EQ(run.record_count(), 600u);
}

TEST(RunFile, FooterBitFlipsNeverCrash) {
  // Flip every bit of the footer's structured prefix (magic through the
  // level table), one at a time. Each mutant must either throw or open and
  // answer a query — under ASan/UBSan this proves no flip reaches an
  // out-of-bounds read.
  bs::TempDir dir;
  bs::Env env(dir.path());
  write_run(env, "r.run", 600);
  const std::filesystem::path file =
      std::filesystem::path(dir.path()) / "r.run";
  const std::filesystem::path pristine =
      std::filesystem::path(dir.path()) / "pristine.bin";
  std::filesystem::copy_file(file, pristine);
  const std::uint64_t fs = footer_start(file);

  int rejected = 0, survived = 0;
  for (std::uint64_t off = 0; off < kFtLevels + 3 * 24; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::filesystem::copy_file(
          pristine, file, std::filesystem::copy_options::overwrite_existing);
      flip_bit(file, fs + off, bit);
      bs::BlockCache cache(16 * bs::kPageSize);
      try {
        bl::RunFile run(env, "r.run", cache);
        auto s = run.seek(rec(100));
        for (int i = 0; i < 4 && s->valid(); ++i) s->next();
        ++survived;
      } catch (const std::exception&) {
        ++rejected;
      }
    }
  }
  // The magic field alone guarantees a healthy rejected population; some
  // flips (e.g. min/max record bytes, low bits of counts) legitimately
  // survive as wrong-but-safe runs.
  EXPECT_GT(rejected, 64);
  SUCCEED() << rejected << " rejected, " << survived << " survived";
}
