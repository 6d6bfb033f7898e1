#include "lsm/merge.hpp"

#include <cstring>

namespace backlog::lsm {

MergeStream::MergeStream(std::vector<std::unique_ptr<RecordStream>> inputs,
                         std::size_t record_size)
    : inputs_(std::move(inputs)), record_size_(record_size) {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i] != nullptr && inputs_[i]->valid()) heap_.push_back(i);
  }
  heapify();
}

bool MergeStream::less(std::size_t a, std::size_t b) const {
  const auto ra = inputs_[heap_[a]]->record();
  const auto rb = inputs_[heap_[b]]->record();
  const int c = std::memcmp(ra.data(), rb.data(), record_size_);
  if (c != 0) return c < 0;
  // Tie-break on input index for a deterministic merge order.
  return heap_[a] < heap_[b];
}

void MergeStream::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < n && less(l, smallest)) smallest = l;
    if (r < n && less(r, smallest)) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

void MergeStream::heapify() {
  for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
}

bool MergeStream::valid() const { return !heap_.empty(); }

std::span<const std::uint8_t> MergeStream::record() const {
  return inputs_[heap_.front()]->record();
}

void MergeStream::next() {
  RecordStream& top = *inputs_[heap_.front()];
  top.next();
  if (!top.valid()) {
    heap_.front() = heap_.back();
    heap_.pop_back();
  }
  if (!heap_.empty()) sift_down(0);
}

DedupStream::DedupStream(std::unique_ptr<RecordStream> in, std::size_t record_size)
    : in_(std::move(in)), record_size_(record_size) {}

void DedupStream::next() {
  std::vector<std::uint8_t> cur(in_->record().begin(), in_->record().end());
  in_->next();
  while (in_->valid() &&
         std::memcmp(cur.data(), in_->record().data(), record_size_) == 0) {
    in_->next();
  }
}

}  // namespace backlog::lsm
