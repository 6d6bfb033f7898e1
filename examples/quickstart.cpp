// Quickstart: the Backlog public API in five minutes.
//
// Creates a simulated write-anywhere file system backed by a Backlog
// database, writes some files, takes a snapshot, makes a writable clone,
// and asks the question the whole system exists to answer efficiently:
//
//     "Tell me all the objects containing this physical block."
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "core/backlog_db.hpp"
#include "fsim/fsim.hpp"
#include "storage/env.hpp"

using namespace backlog;

int main() {
  // A storage environment is a directory; everything Backlog persists —
  // run files and the manifest — lives under it.
  storage::TempDir dir("backlog-quickstart");
  storage::Env env(dir.path());
  std::printf("volume directory: %s\n\n", dir.path().c_str());

  // The simulated write-anywhere file system owns a BacklogDb and drives it
  // through the three callbacks of the paper: reference added, reference
  // removed, consistency point.
  fsim::FsimOptions options;
  options.ops_per_cp = 1000000;  // we'll take CPs explicitly below
  options.dedup_fraction = 0.0;
  fsim::FileSystem fs(env, options);

  // --- 1. create a file and commit a consistency point ----------------------
  const fsim::InodeNo readme = fs.create_file(/*line=*/0, /*num_blocks=*/4);
  const auto cp1 = fs.consistency_point();
  std::printf("created inode %llu (4 blocks); CP %llu flushed %llu records "
              "with %llu page writes\n",
              (unsigned long long)readme, (unsigned long long)cp1.cp,
              (unsigned long long)cp1.block_ops,
              (unsigned long long)cp1.pages_written);

  // --- 2. snapshot, then overwrite: copy-on-write ---------------------------
  const core::Epoch snap = fs.take_snapshot(0);
  fs.consistency_point();
  fs.write_file(0, readme, /*offset=*/0, /*count=*/2);  // CoW blocks 0-1
  fs.consistency_point();
  std::printf("snapshot v%llu taken, then blocks 0-1 rewritten (CoW)\n\n",
              (unsigned long long)snap);

  // --- 3. query back references ---------------------------------------------
  const core::BlockNo old_block = fs.snapshot_images(0).at(snap).at(readme)->blocks[0];
  const core::BlockNo new_block = fs.live_image(0).at(readme)->blocks[0];

  std::printf("who references the OLD block %llu?\n",
              (unsigned long long)old_block);
  for (const core::BackrefEntry& e : fs.db().query(old_block)) {
    std::printf("  %s visible at versions:", core::to_string(e.rec).c_str());
    for (const core::Epoch v : e.versions) std::printf(" %llu", (unsigned long long)v);
    std::printf("\n");
  }
  std::printf("who references the NEW block %llu?\n",
              (unsigned long long)new_block);
  for (const core::BackrefEntry& e : fs.db().query(new_block)) {
    std::printf("  %s visible at versions:", core::to_string(e.rec).c_str());
    for (const core::Epoch v : e.versions) std::printf(" %llu", (unsigned long long)v);
    std::printf("\n");
  }

  // --- 4. writable clones cost nothing (structural inheritance) -------------
  const fsim::LineId clone = fs.create_clone(0, snap);
  const auto cp_clone = fs.consistency_point();
  std::printf("\nclone line %llu created; back-reference records written: %llu"
              " (structural inheritance)\n",
              (unsigned long long)clone, (unsigned long long)cp_clone.block_ops);
  std::printf("owners of block %llu after cloning:\n",
              (unsigned long long)old_block);
  for (const core::BackrefEntry& e : fs.db().query(old_block)) {
    std::printf("  %s\n", core::to_string(e.rec).c_str());
  }

  // --- 5. maintenance --------------------------------------------------------
  const core::MaintenanceStats m = fs.db().maintain();
  std::printf("\nmaintenance: %llu records in, %llu complete + %llu incomplete "
              "out, %llu purged, %.0f%% of bytes reclaimed\n",
              (unsigned long long)m.input_records,
              (unsigned long long)m.output_complete,
              (unsigned long long)m.output_incomplete,
              (unsigned long long)m.purged,
              m.bytes_before == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(m.bytes_after) /
                                       static_cast<double>(m.bytes_before)));
  std::printf("\ndone. (the volume directory is removed on exit)\n");
  return 0;
}
