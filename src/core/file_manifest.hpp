// FileManifest — reference-counted ownership of immutable files shared
// across volume directories (the service layer's copy-on-write clones).
//
// The paper's premise is that a write-anywhere system shares immutable
// blocks across snapshots and clones and resolves shared ownership through
// back references; this is the same idea one level up, applied to whole
// files. A Backlog volume's run files are immutable once written (updates
// land in new Level-0 runs, logical deletes go through the deletion
// vectors), so a clone can *share* them instead of copying: clone_volume
// hard-links every live run file into the clone's directory and records the
// sharing here. From that point the file is owned by a refcount, not by a
// single volume directory:
//
//   * note_link(name)   — one more directory holds a link of `name`
//   * note_unlink(name) — one holder dropped its link (compaction retiring
//                         a run, snapshot deletion, destroy_volume, clone
//                         failure cleanup)
//
// An entry exists only while a file is held by >= 2 directories; when the
// count decays to 1 the entry is erased and the remaining holder owns the
// file alone again (its eventual unlink is the physical removal — refcount
// zero). Untracked names are sole-owned by construction, so the hot path
// (every CP flush creates runs, most runs are never shared) costs nothing.
//
// Persistence and crash safety: the table is persisted to `FILEREFS` in the
// service root via atomic tmp+rename. clone_volume persists it as one of
// its two durability points (the other being the clone directory's commit
// rename), and a crash between the two leaves the table stale in either
// direction — which is why recovery never trusts it: rebuild() recounts
// every name across the committed volume directories (names are globally
// unique, see BacklogOptions::file_tag) and rewrites the table. FILEREFS is
// a durable cache for inspection and accounting, not the root of truth; the
// union of the volumes' own Backlog manifests is.
//
// Thread safety: all methods lock an internal mutex — shard threads release
// files during compaction while the API thread shares files during a clone.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace backlog::core {

class FileManifest {
 public:
  /// One shared file: how many directories hold a hard link of it.
  struct Entry {
    std::uint32_t refcount = 0;
    std::uint64_t size_bytes = 0;
  };

  struct Stats {
    std::uint64_t shared_files = 0;  ///< tracked names (refcount >= 2)
    std::uint64_t shared_bytes = 0;  ///< bytes stored once, referenced more
    std::uint64_t saved_bytes = 0;   ///< sum over entries of (refcount-1)*size
    std::uint64_t persists = 0;      ///< FILEREFS writes since construction
  };

  /// Creates `root` if missing and loads `root/FILEREFS` if present (a
  /// corrupt or torn table loads as far as it parses — callers that need
  /// exactness after a crash run rebuild()).
  explicit FileManifest(std::filesystem::path root);

  FileManifest(const FileManifest&) = delete;
  FileManifest& operator=(const FileManifest&) = delete;

  // --- refcount transitions (in-memory; callers choose the persist point) ---

  /// One more directory holds a link of `name`. Creates the entry at
  /// refcount 2 (the original holder plus the new one) on first sharing.
  void note_link(const std::string& name, std::uint64_t size_bytes);

  /// One holder dropped its link of `name`. Returns true if the table
  /// changed (the name was tracked); untracked names are sole-owned and
  /// nothing needs recording. Entries decay at refcount 1: the survivor
  /// owns the file alone and its own unlink is the physical removal.
  bool note_unlink(const std::string& name);

  /// The per-file release hook BacklogDb calls when it retires a run
  /// (after deleting its own directory entry). Memory-only — a compaction
  /// pass retiring many shared runs must not rewrite FILEREFS per file;
  /// BacklogDb flushes once per pass via persist_if_dirty(). The widened
  /// crash window only ever leaves FILEREFS *overcounting* (links gone,
  /// table not yet rewritten), which recovery's rebuild() erases.
  void release(const std::string& name) { note_unlink(name); }

  /// Write `FILEREFS` atomically (tmp + rename). A no-op table still
  /// persists (an empty file), so a cleared table is durable too.
  void persist();

  /// persist() only if a note_link/note_unlink changed the table since the
  /// last write — the batch flush for compaction passes and recovery.
  void persist_if_dirty();

  // --- queries ---------------------------------------------------------------

  /// True while `name` is held by >= 2 directories.
  [[nodiscard]] bool is_shared(const std::string& name) const;

  /// Tracked holder count of `name`; 0 for untracked (sole-owned) names.
  [[nodiscard]] std::uint32_t refcount(const std::string& name) const;

  [[nodiscard]] std::map<std::string, Entry> snapshot() const;
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::filesystem::path& root() const noexcept {
    return root_;
  }

  // --- recovery --------------------------------------------------------------

  /// Recount every `.run` name across `volume_dirs` (the committed volume
  /// directories), replace the table with names whose *inode* is held by
  /// >= 2 directories, and persist. Sharing is verified by stat identity,
  /// not name equality alone: a run a clone byte-copied because the file
  /// system could not link it duplicates the name without sharing storage
  /// and must not be counted.
  /// Returns the number of tracked entries. This is the crash recovery
  /// path: whatever a half-finished clone or an unpersisted release left
  /// in FILEREFS, the directories are the truth.
  std::size_t rebuild(const std::vector<std::filesystem::path>& volume_dirs);

 private:
  void load();
  void persist_locked();

  std::filesystem::path root_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::uint64_t persists_ = 0;
  bool dirty_ = false;
};

}  // namespace backlog::core
