#include "core/write_store.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace backlog::core {

void WriteStore::add_reference(const BackrefKey& key, Epoch cp) {
  const Update op{Update::Kind::kAdd, key};
  apply_many({&op, 1}, cp);
}

void WriteStore::remove_reference(const BackrefKey& key, Epoch cp) {
  const Update op{Update::Kind::kRemove, key};
  apply_many({&op, 1}, cp);
}

void WriteStore::apply_many(std::span<const Update> ops, Epoch cp) {
  if (cp != log_cp_) {
    fold();
    log_cp_ = cp;
  }
  // A range insert grows the capacity geometrically, so many small batches
  // stay amortized O(1) per op.
  log_.insert(log_.end(), ops.begin(), ops.end());
}

const WriteStore& WriteStore::fold() const {
  if (log_.empty()) return *this;
  // Stable: a key's updates must be applied in the order they arrived.
  std::stable_sort(log_.begin(), log_.end(),
                   [](const Update& a, const Update& b) { return a.key < b.key; });
  const auto adds = static_cast<std::size_t>(
      std::count_if(log_.begin(), log_.end(),
                    [](const Update& op) { return op.kind == Update::Kind::kAdd; }));
  std::vector<FromRecord> from;
  std::vector<ToRecord> to;
  from.reserve(from_.size() + adds);
  to.reserve(to_.size() + log_.size() - adds);
  auto fi = from_.cbegin();
  auto ti = to_.cbegin();
  for (auto op = log_.cbegin(); op != log_.cend();) {
    const FromRecord f{op->key, log_cp_};
    const ToRecord t{op->key, log_cp_};
    while (fi != from_.cend() && *fi < f) from.push_back(*fi++);
    while (ti != to_.cend() && *ti < t) to.push_back(*ti++);
    bool has_from = fi != from_.cend() && *fi == f;
    bool has_to = ti != to_.cend() && *ti == t;
    fi += has_from ? 1 : 0;
    ti += has_to ? 1 : 0;
    for (; op != log_.cend() && op->key == f.key; ++op) {
      if (op->kind == Update::Kind::kAdd) {
        // Reallocation within one CP: the reference died and came back
        // before anything hit disk, so its lifetime never actually ended —
        // drop the buffered To and leave the original (older) From alone.
        if (pruning_ && has_to) has_to = false; else has_from = true;
      } else {
        // Created and destroyed within one CP: annihilate (a from == to
        // record would describe an interval no consistency point can see).
        if (pruning_ && has_from) has_from = false; else has_to = true;
      }
    }
    if (has_from) from.push_back(f);
    if (has_to) to.push_back(t);
  }
  from.insert(from.end(), fi, from_.cend());
  to.insert(to.end(), ti, to_.cend());
  from_ = std::move(from);
  to_ = std::move(to);
  // Keep the log's buffer for the next window unless an earlier, much larger
  // window (a clone-head deletion, say) left it oversized.
  if (log_.capacity() > 4 * log_.size()) log_ = {};
  log_.clear();
  return *this;
}

namespace {
static_assert(kFromRecordSize == kToRecordSize);

void encode_record(const FromRecord& r, std::uint8_t* dst) { encode_from(r, dst); }
void encode_record(const ToRecord& r, std::uint8_t* dst) { encode_to(r, dst); }

template <class It>
std::vector<std::uint8_t> encode(It first, It last) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(last - first) *
                                kFromRecordSize);
  for (std::uint8_t* dst = out.data(); first != last; ++first, dst += kFromRecordSize)
    encode_record(*first, dst);
  return out;
}

// The entries of sorted `recs` whose block lies in [lo, hi): records sort
// block-first, and the smallest record of a block has every other field zero
// (BackrefKey's default length is 1, so build it explicitly).
template <class Vec>
auto block_range(Vec& recs, BlockNo lo, BlockNo hi) {
  using Rec = typename std::remove_const_t<Vec>::value_type;
  const auto floor = [](BlockNo block) {
    return Rec{BackrefKey{block, 0, 0, 0, 0}, 0};
  };
  const auto first = std::lower_bound(recs.begin(), recs.end(), floor(lo));
  return std::pair{first, std::lower_bound(first, recs.end(), floor(hi))};
}

template <class Rec>
std::size_t rekey(std::vector<Rec>& recs, BlockNo lo, BlockNo hi, BlockNo new_lo) {
  const auto [first, last] = block_range(recs, lo, hi);
  const auto moved = static_cast<std::size_t>(last - first);
  for (auto it = first; it != last; ++it) it->key.block = it->key.block - lo + new_lo;
  // Three sorted runs now; merge them back and drop a re-keyed entry that
  // landed on an existing one.
  std::inplace_merge(recs.begin(), first, last);
  std::inplace_merge(recs.begin(), last, recs.end());
  recs.erase(std::unique(recs.begin(), recs.end()), recs.end());
  return moved;
}
}  // namespace

std::vector<std::uint8_t> WriteStore::encode_from_sorted() const {
  fold();
  return encode(from_.cbegin(), from_.cend());
}

std::vector<std::uint8_t> WriteStore::encode_to_sorted() const {
  fold();
  return encode(to_.cbegin(), to_.cend());
}

std::vector<std::uint8_t> WriteStore::encode_from_range(BlockNo block_lo,
                                                        BlockNo block_hi) const {
  const auto [first, last] = block_range(fold().from_, block_lo, block_hi);
  return encode(first, last);
}

std::vector<std::uint8_t> WriteStore::encode_to_range(BlockNo block_lo,
                                                      BlockNo block_hi) const {
  const auto [first, last] = block_range(fold().to_, block_lo, block_hi);
  return encode(first, last);
}

std::size_t WriteStore::rekey_block_range(BlockNo block_lo, BlockNo block_hi,
                                          BlockNo new_lo) {
  fold();
  return rekey(from_, block_lo, block_hi, new_lo) +
         rekey(to_, block_lo, block_hi, new_lo);
}

}  // namespace backlog::core
