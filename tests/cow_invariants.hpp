// The copy-on-write sharing invariants of a service root, shared by the
// clone suite and the version model checker. Sharing has one record, the
// file system's link count, so the check recounts it from the directories:
//
//   * no leaks or dangles: per volume, the files on disk are exactly its
//     BacklogDb::live_files (captured inside one shard task, so nothing of
//     that volume's can interleave);
//   * exact links: every run inode's st_nlink equals the number of volume
//     directories holding it, so a link left outside a volume directory (a
//     staging leftover, a stray copy) fails;
//   * exact stats: each tenant's stats() shared_files / shared_bytes equal
//     that recount;
//   * a clean root: it holds exactly the open volumes' directories and no
//     regular file.
#pragma once

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "service/service.hpp"

namespace backlog::testing {

inline void expect_cow_invariants(service::VolumeManager& vm,
                                  const std::filesystem::path& root,
                                  const std::vector<std::string>& tenants) {
  namespace fs = std::filesystem;
  using InodeId = std::pair<std::uint64_t, std::uint64_t>;  // (dev, ino)
  struct Run {
    std::uint64_t holders = 0;
    std::uint64_t nlink = 0;
    std::uint64_t size = 0;
  };
  std::map<InodeId, Run> runs;
  std::map<std::string, std::vector<InodeId>> runs_of;
  for (const std::string& t : tenants) {
    std::set<std::string> live, on_disk;
    const fs::path dir = root / t;
    vm.with_db(t,
               [&](core::BacklogDb& db) {
                 for (const auto& f : db.live_files()) live.insert(f);
                 for (const auto& de : fs::directory_iterator(dir)) {
                   if (de.is_regular_file())
                     on_disk.insert(de.path().filename().string());
                 }
               })
        .get();
    EXPECT_EQ(on_disk, live) << "leaked or missing files in " << t;
    for (const auto& f : live) {
      struct ::stat st{};
      if (!f.ends_with(".run") || ::stat((dir / f).c_str(), &st) != 0)
        continue;
      const InodeId id{static_cast<std::uint64_t>(st.st_dev),
                       static_cast<std::uint64_t>(st.st_ino)};
      Run& r = runs[id];
      ++r.holders;
      r.nlink = st.st_nlink;
      r.size = static_cast<std::uint64_t>(st.st_size);
      runs_of[t].push_back(id);
    }
  }
  for (const auto& [id, r] : runs) {
    EXPECT_EQ(r.nlink, r.holders)
        << "inode " << id.second << " has links outside the volume directories";
  }

  const service::ServiceStats stats = vm.stats();
  for (const std::string& t : tenants) {
    std::uint64_t shared_files = 0, shared_bytes = 0;
    for (const InodeId& id : runs_of[t]) {
      if (runs.at(id).holders < 2) continue;
      ++shared_files;
      shared_bytes += runs.at(id).size;
    }
    ASSERT_TRUE(stats.tenants.contains(t)) << t;
    EXPECT_EQ(stats.tenants.at(t).shared_files, shared_files) << t;
    EXPECT_EQ(stats.tenants.at(t).shared_bytes, shared_bytes) << t;
  }

  // The root holds exactly the open volumes: no `.cloning` staging
  // leftover, no file.
  std::set<std::string> dirs, files;
  for (const auto& de : fs::directory_iterator(root)) {
    (de.is_directory() ? dirs : files).insert(de.path().filename().string());
  }
  EXPECT_EQ(dirs, std::set<std::string>(tenants.begin(), tenants.end()));
  EXPECT_TRUE(files.empty()) << "regular file in the service root: "
                             << *files.begin();
}

}  // namespace backlog::testing
