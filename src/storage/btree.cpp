#include "storage/btree.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "util/crc32c.hpp"
#include "util/serde.hpp"

namespace backlog::storage {

namespace {

// Page layout (both kinds):
//   [0]  u16 type (1 = leaf, 2 = internal)
//   [2]  u16 count
//   [4]  u32 crc32c over bytes [8, kPageSize)
//   [8]  u64 next_leaf (leaf pages; 0 = none)
//   [16] slots...
constexpr std::size_t kHeaderSize = 16;
constexpr std::uint16_t kLeaf = 1;
constexpr std::uint16_t kInternal = 2;

// Meta page (page 0):
//   [0] u64 magic  [8] u32 key_size  [12] u32 value_size
//   [16] u64 root  [24] u64 next_page  [32] u64 record_count  [40] u32 height
constexpr std::uint64_t kMagic = 0x424b4c4f47425452ULL;  // "BKLOGBTR"

std::uint16_t page_type(const std::uint8_t* p) { return util::get_u16(p); }
std::uint16_t page_count_of(const std::uint8_t* p) { return util::get_u16(p + 2); }
void set_page_type(std::uint8_t* p, std::uint16_t t) { util::put_u16(p, t); }
void set_page_count(std::uint8_t* p, std::uint16_t c) { util::put_u16(p + 2, c); }
std::uint64_t next_leaf_of(const std::uint8_t* p) { return util::get_u64(p + 8); }
void set_next_leaf(std::uint8_t* p, std::uint64_t n) { util::put_u64(p + 8, n); }

}  // namespace

std::size_t BTree::leaf_capacity() const noexcept {
  return (kPageSize - kHeaderSize) / leaf_slot_size();
}

std::size_t BTree::internal_capacity() const noexcept {
  return (kPageSize - kHeaderSize) / internal_slot_size();
}

BTree::BTree(Env& env, const std::string& file_name, std::size_t key_size,
             std::size_t value_size, std::size_t cache_pages)
    : env_(env),
      file_name_(file_name),
      key_size_(key_size),
      value_size_(value_size),
      cache_pages_(cache_pages) {
  if (key_size_ == 0 || key_size_ > 256)
    throw std::invalid_argument("BTree: key_size out of range");
  if (value_size_ > 1024) throw std::invalid_argument("BTree: value too large");
  if (leaf_capacity() < 4 || internal_capacity() < 4)
    throw std::invalid_argument("BTree: records too large for a 4 KB page");
  file_ = env_.open_paged_rw(file_name_);
  load_meta();
}

BTree::~BTree() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; an unflushed baseline tree only loses
    // simulated state.
  }
}

void BTree::load_meta() {
  if (file_->size() == 0) {
    // Fresh tree: the root starts as an empty leaf on page 1.
    std::uint64_t root_no = 0;
    FramePtr root = create_page(&root_no);
    set_page_type(root->data.data(), kLeaf);
    set_page_count(root->data.data(), 0);
    set_next_leaf(root->data.data(), 0);
    root_ = root_no;
    height_ = 1;
    record_count_ = 0;
    meta_dirty_ = true;
    return;
  }
  std::vector<std::uint8_t> meta(kPageSize);
  file_->read_page(0, meta);
  if (util::get_u64(meta.data()) != kMagic)
    throw std::runtime_error("BTree: bad magic in " + file_name_);
  if (util::get_u32(meta.data() + 8) != key_size_ ||
      util::get_u32(meta.data() + 12) != value_size_)
    throw std::runtime_error("BTree: key/value size mismatch in " + file_name_);
  root_ = util::get_u64(meta.data() + 16);
  next_page_ = util::get_u64(meta.data() + 24);
  record_count_ = util::get_u64(meta.data() + 32);
  height_ = util::get_u32(meta.data() + 40);
}

void BTree::store_meta() {
  std::vector<std::uint8_t> meta(kPageSize, 0);
  util::put_u64(meta.data(), kMagic);
  util::put_u32(meta.data() + 8, static_cast<std::uint32_t>(key_size_));
  util::put_u32(meta.data() + 12, static_cast<std::uint32_t>(value_size_));
  util::put_u64(meta.data() + 16, root_);
  util::put_u64(meta.data() + 24, next_page_);
  util::put_u64(meta.data() + 32, record_count_);
  util::put_u32(meta.data() + 40, height_);
  file_->write_page(0, meta);
  meta_dirty_ = false;
}

BTree::FramePtr BTree::fetch(std::uint64_t page_no) {
  if (auto it = frames_.find(page_no); it != frames_.end()) {
    ++cache_hits_;
    lru_.splice(lru_.begin(), lru_, lru_pos_.at(page_no));
    return it->second;
  }
  ++cache_misses_;
  auto frame = std::make_shared<Frame>();
  frame->data.resize(kPageSize);
  file_->read_page(page_no, frame->data);
  const std::uint32_t want = util::get_u32(frame->data.data() + 4);
  const std::uint32_t got =
      util::crc32c(frame->data.data() + 8, kPageSize - 8);
  if (want != got)
    throw std::runtime_error("BTree: checksum mismatch on page " +
                             std::to_string(page_no));
  frames_.emplace(page_no, frame);
  lru_.push_front(page_no);
  lru_pos_[page_no] = lru_.begin();
  maybe_evict();
  return frame;
}

BTree::FramePtr BTree::create_page(std::uint64_t* page_no_out) {
  const std::uint64_t page_no = next_page_++;
  auto frame = std::make_shared<Frame>();
  frame->data.assign(kPageSize, 0);
  frame->dirty = true;
  frames_.emplace(page_no, frame);
  lru_.push_front(page_no);
  lru_pos_[page_no] = lru_.begin();
  meta_dirty_ = true;
  maybe_evict();
  *page_no_out = page_no;
  return frame;
}

void BTree::maybe_evict() {
  if (cache_pages_ == 0) return;
  // Scan from the cold end; skip frames pinned by callers (use_count > 1).
  auto it = lru_.end();
  while (frames_.size() > cache_pages_ && it != lru_.begin()) {
    --it;
    const std::uint64_t page_no = *it;
    auto fit = frames_.find(page_no);
    assert(fit != frames_.end());
    if (fit->second.use_count() > 1) continue;  // pinned
    if (fit->second->dirty) write_back(page_no, *fit->second);
    frames_.erase(fit);
    lru_pos_.erase(page_no);
    it = lru_.erase(it);
  }
}

void BTree::write_back(std::uint64_t page_no, Frame& frame) {
  util::put_u32(frame.data.data() + 4,
                util::crc32c(frame.data.data() + 8, kPageSize - 8));
  file_->write_page(page_no, frame.data);
  frame.dirty = false;
}

void BTree::flush() {
  for (auto& [page_no, frame] : frames_) {
    if (frame->dirty) write_back(page_no, *frame);
  }
  store_meta();
}

std::uint64_t BTree::descend(std::span<const std::uint8_t> key,
                             std::vector<PathEntry>* path) {
  std::uint64_t page_no = root_;
  while (true) {
    FramePtr frame = fetch(page_no);
    const std::uint8_t* p = frame->data.data();
    if (page_type(p) == kLeaf) return page_no;
    const std::uint16_t count = page_count_of(p);
    assert(count >= 1);
    const std::size_t slot = internal_slot_size();
    // Largest i with (i == 0 or key_i <= key): binary search over [1, count).
    std::uint16_t lo = 1, hi = count;  // answer in [lo-1, hi-1]
    while (lo < hi) {
      const std::uint16_t mid = static_cast<std::uint16_t>((lo + hi) / 2);
      const std::uint8_t* k = p + kHeaderSize + mid * slot;
      if (std::memcmp(k, key.data(), key_size_) <= 0) {
        lo = static_cast<std::uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    const std::uint16_t child_index = static_cast<std::uint16_t>(lo - 1);
    if (path != nullptr) path->push_back({page_no, child_index});
    page_no = util::get_u64(p + kHeaderSize + child_index * slot + key_size_);
  }
}

namespace {
/// Binary search in a leaf: first slot with slot_key >= key.
/// Sets *found if an exact match exists.
std::uint16_t leaf_lower_bound(const std::uint8_t* p, std::uint16_t count,
                               std::span<const std::uint8_t> key,
                               std::size_t key_size, std::size_t slot_size,
                               bool* found) {
  std::uint16_t lo = 0, hi = count;
  while (lo < hi) {
    const std::uint16_t mid = static_cast<std::uint16_t>((lo + hi) / 2);
    const std::uint8_t* k = p + kHeaderSize + mid * slot_size;
    if (std::memcmp(k, key.data(), key_size) < 0) {
      lo = static_cast<std::uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  *found = lo < count &&
           std::memcmp(p + kHeaderSize + lo * slot_size, key.data(), key_size) == 0;
  return lo;
}
}  // namespace

bool BTree::put(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> value) {
  if (key.size() != key_size_ || value.size() != value_size_)
    throw std::invalid_argument("BTree::put: wrong key/value size");
  while (true) {
    std::vector<PathEntry> path;
    const std::uint64_t leaf_no = descend(key, &path);
    FramePtr frame = fetch(leaf_no);
    std::uint8_t* p = frame->data.data();
    const std::uint16_t count = page_count_of(p);
    bool found = false;
    const std::uint16_t idx =
        leaf_lower_bound(p, count, key, key_size_, leaf_slot_size(), &found);
    if (found) {
      if (value_size_ != 0) {  // a zero-size value has a null span
        std::memcpy(p + kHeaderSize + idx * leaf_slot_size() + key_size_,
                    value.data(), value_size_);
      }
      frame->dirty = true;
      return false;
    }
    if (count < leaf_capacity()) {
      std::uint8_t* slot0 = p + kHeaderSize;
      std::memmove(slot0 + (idx + 1) * leaf_slot_size(),
                   slot0 + idx * leaf_slot_size(),
                   (count - idx) * leaf_slot_size());
      std::memcpy(slot0 + idx * leaf_slot_size(), key.data(), key_size_);
      if (value_size_ != 0) {  // a zero-size value has a null span
        std::memcpy(slot0 + idx * leaf_slot_size() + key_size_, value.data(),
                    value_size_);
      }
      set_page_count(p, static_cast<std::uint16_t>(count + 1));
      frame->dirty = true;
      ++record_count_;
      meta_dirty_ = true;
      return true;
    }
    split_leaf(leaf_no, *frame, path);
    // Retry: the re-descend lands in the correct half.
  }
}

void BTree::split_leaf(std::uint64_t leaf_no, Frame& leaf,
                       std::vector<PathEntry>& path) {
  std::uint8_t* p = leaf.data.data();
  const std::uint16_t count = page_count_of(p);
  const std::uint16_t keep = static_cast<std::uint16_t>(count / 2);
  const std::uint16_t moved = static_cast<std::uint16_t>(count - keep);

  std::uint64_t new_no = 0;
  FramePtr right = create_page(&new_no);
  std::uint8_t* q = right->data.data();
  set_page_type(q, kLeaf);
  set_page_count(q, moved);
  set_next_leaf(q, next_leaf_of(p));
  std::memcpy(q + kHeaderSize, p + kHeaderSize + keep * leaf_slot_size(),
              moved * leaf_slot_size());

  set_page_count(p, keep);
  set_next_leaf(p, new_no);
  leaf.dirty = true;
  (void)leaf_no;

  std::vector<std::uint8_t> sep(q + kHeaderSize, q + kHeaderSize + key_size_);
  insert_into_parent(path, sep, new_no);
}

void BTree::insert_into_parent(std::vector<PathEntry>& path,
                               std::span<const std::uint8_t> sep_key,
                               std::uint64_t new_child) {
  if (path.empty()) {
    // Grow a new root above the current one.
    std::uint64_t new_root_no = 0;
    FramePtr root = create_page(&new_root_no);
    std::uint8_t* p = root->data.data();
    set_page_type(p, kInternal);
    set_page_count(p, 2);
    const std::size_t slot = internal_slot_size();
    // Slot 0's key is never examined; zero it for determinism.
    std::memset(p + kHeaderSize, 0, key_size_);
    util::put_u64(p + kHeaderSize + key_size_, root_);
    std::memcpy(p + kHeaderSize + slot, sep_key.data(), key_size_);
    util::put_u64(p + kHeaderSize + slot + key_size_, new_child);
    root_ = new_root_no;
    ++height_;
    meta_dirty_ = true;
    return;
  }

  const PathEntry entry = path.back();
  path.pop_back();
  FramePtr frame = fetch(entry.page_no);
  std::uint8_t* p = frame->data.data();
  const std::uint16_t count = page_count_of(p);
  const std::size_t slot = internal_slot_size();
  const std::uint16_t insert_at = static_cast<std::uint16_t>(entry.child_index + 1);

  if (count < internal_capacity()) {
    std::uint8_t* slot0 = p + kHeaderSize;
    std::memmove(slot0 + (insert_at + 1) * slot, slot0 + insert_at * slot,
                 (count - insert_at) * slot);
    std::memcpy(slot0 + insert_at * slot, sep_key.data(), key_size_);
    util::put_u64(slot0 + insert_at * slot + key_size_, new_child);
    set_page_count(p, static_cast<std::uint16_t>(count + 1));
    frame->dirty = true;
    return;
  }

  // Full internal node: materialize count+1 entries, split in half, promote
  // the first key of the right half.
  struct Ent {
    std::vector<std::uint8_t> key;
    std::uint64_t child;
  };
  std::vector<Ent> entries;
  entries.reserve(count + 1);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint8_t* s = p + kHeaderSize + i * slot;
    entries.push_back(
        {std::vector<std::uint8_t>(s, s + key_size_), util::get_u64(s + key_size_)});
  }
  entries.insert(entries.begin() + insert_at,
                 {std::vector<std::uint8_t>(sep_key.begin(), sep_key.end()),
                  new_child});

  const std::size_t total = entries.size();
  const std::size_t keep = total / 2;

  set_page_count(p, static_cast<std::uint16_t>(keep));
  for (std::size_t i = 0; i < keep; ++i) {
    std::uint8_t* s = p + kHeaderSize + i * slot;
    std::memcpy(s, entries[i].key.data(), key_size_);
    util::put_u64(s + key_size_, entries[i].child);
  }
  frame->dirty = true;

  std::uint64_t new_no = 0;
  FramePtr right = create_page(&new_no);
  std::uint8_t* q = right->data.data();
  set_page_type(q, kInternal);
  set_page_count(q, static_cast<std::uint16_t>(total - keep));
  for (std::size_t i = keep; i < total; ++i) {
    std::uint8_t* s = q + kHeaderSize + (i - keep) * slot;
    std::memcpy(s, entries[i].key.data(), key_size_);
    util::put_u64(s + key_size_, entries[i].child);
  }

  insert_into_parent(path, entries[keep].key, new_no);
}

std::optional<std::vector<std::uint8_t>> BTree::get(
    std::span<const std::uint8_t> key) {
  if (key.size() != key_size_)
    throw std::invalid_argument("BTree::get: wrong key size");
  const std::uint64_t leaf_no = descend(key, nullptr);
  FramePtr frame = fetch(leaf_no);
  const std::uint8_t* p = frame->data.data();
  bool found = false;
  const std::uint16_t idx = leaf_lower_bound(p, page_count_of(p), key, key_size_,
                                             leaf_slot_size(), &found);
  if (!found) return std::nullopt;
  const std::uint8_t* v = p + kHeaderSize + idx * leaf_slot_size() + key_size_;
  return std::vector<std::uint8_t>(v, v + value_size_);
}

bool BTree::erase(std::span<const std::uint8_t> key) {
  if (key.size() != key_size_)
    throw std::invalid_argument("BTree::erase: wrong key size");
  const std::uint64_t leaf_no = descend(key, nullptr);
  FramePtr frame = fetch(leaf_no);
  std::uint8_t* p = frame->data.data();
  const std::uint16_t count = page_count_of(p);
  bool found = false;
  const std::uint16_t idx =
      leaf_lower_bound(p, count, key, key_size_, leaf_slot_size(), &found);
  if (!found) return false;
  std::uint8_t* slot0 = p + kHeaderSize;
  std::memmove(slot0 + idx * leaf_slot_size(), slot0 + (idx + 1) * leaf_slot_size(),
               (count - idx - 1) * leaf_slot_size());
  set_page_count(p, static_cast<std::uint16_t>(count - 1));
  frame->dirty = true;
  --record_count_;
  meta_dirty_ = true;
  return true;
}

BTreeStats BTree::stats() const {
  BTreeStats s;
  s.record_count = record_count_;
  s.page_count = next_page_;
  s.height = height_;
  s.cache_hits = cache_hits_;
  s.cache_misses = cache_misses_;
  return s;
}

void BTree::Cursor::load() {
  if (page_ == 0) {
    snapshot_.reset();
    return;
  }
  FramePtr frame = tree_->fetch(page_);
  snapshot_ = std::make_shared<const std::vector<std::uint8_t>>(frame->data);
}

std::span<const std::uint8_t> BTree::Cursor::key() const {
  const std::uint8_t* p = snapshot_->data();
  return {p + kHeaderSize + index_ * tree_->leaf_slot_size(), tree_->key_size_};
}

std::span<const std::uint8_t> BTree::Cursor::value() const {
  const std::uint8_t* p = snapshot_->data();
  return {p + kHeaderSize + index_ * tree_->leaf_slot_size() + tree_->key_size_,
          tree_->value_size_};
}

void BTree::Cursor::next() {
  if (page_ == 0) return;
  ++index_;
  while (page_ != 0 && index_ >= page_count_of(snapshot_->data())) {
    page_ = next_leaf_of(snapshot_->data());
    index_ = 0;
    load();
    if (page_ == 0) return;
  }
}

BTree::Cursor BTree::seek(std::span<const std::uint8_t> key) {
  if (key.size() != key_size_)
    throw std::invalid_argument("BTree::seek: wrong key size");
  Cursor c;
  c.tree_ = this;
  c.page_ = descend(key, nullptr);
  c.load();
  bool found = false;
  c.index_ = leaf_lower_bound(c.snapshot_->data(), page_count_of(c.snapshot_->data()),
                              key, key_size_, leaf_slot_size(), &found);
  // Normalize: if positioned past the last record of this leaf, hop forward.
  if (c.index_ >= page_count_of(c.snapshot_->data())) {
    // next() increments first, so step back one slot.
    if (c.index_ > 0) {
      --c.index_;
      c.next();
    } else {
      // Empty leaf (possible after lazy deletes): walk the chain.
      while (c.page_ != 0 && page_count_of(c.snapshot_->data()) == 0) {
        c.page_ = next_leaf_of(c.snapshot_->data());
        c.load();
      }
      c.index_ = 0;
    }
  }
  return c;
}

BTree::Cursor BTree::begin() {
  // Descend along child 0 to the leftmost leaf.
  Cursor c;
  c.tree_ = this;
  std::uint64_t page_no = root_;
  while (true) {
    FramePtr frame = fetch(page_no);
    const std::uint8_t* p = frame->data.data();
    if (page_type(p) == kLeaf) break;
    page_no = util::get_u64(p + kHeaderSize + key_size_);
  }
  c.page_ = page_no;
  c.index_ = 0;
  c.load();
  // Skip empty leading leaves.
  while (c.page_ != 0 && page_count_of(c.snapshot_->data()) == 0) {
    c.page_ = next_leaf_of(c.snapshot_->data());
    c.load();
  }
  return c;
}

}  // namespace backlog::storage
