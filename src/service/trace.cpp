#include "service/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace backlog::service {

const char* to_string(TraceVerb v) noexcept {
  switch (v) {
    case TraceVerb::kApplyBatch: return "apply_batch";
    case TraceVerb::kQueryBatch: return "query_batch";
    case TraceVerb::kCp: return "cp";
    case TraceVerb::kSnapshot: return "snapshot";
    case TraceVerb::kMaintenance: return "maintenance";
    case TraceVerb::kControl: return "control";
  }
  return "unknown";
}

void TraceSpan::set_tenant(const std::string& name) noexcept {
  const std::size_t n = std::min(name.size(), sizeof(tenant) - 1);
  std::memcpy(tenant, name.data(), n);
  tenant[n] = '\0';
}

std::string format_span(const TraceSpan& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s id=%llu verb=%s tenant=%s ops=%u shard=%u->%u%s\n"
                "  gate=%lluus queue=%lluus exec=%lluus (io=%lluus "
                "core=%lluus) commit=%lluus e2e=%lluus",
                s.slow ? "slow-op" : "span",
                static_cast<unsigned long long>(s.id), to_string(s.verb),
                s.tenant, s.ops, s.submit_shard, s.exec_shard,
                s.migrated ? " migrated" : "",
                static_cast<unsigned long long>(s.gate_wait_micros),
                static_cast<unsigned long long>(s.queue_wait_micros),
                static_cast<unsigned long long>(s.execute_micros),
                static_cast<unsigned long long>(s.io_micros),
                static_cast<unsigned long long>(s.core_micros()),
                static_cast<unsigned long long>(s.commit_wait_micros),
                static_cast<unsigned long long>(s.end_to_end_micros()));
  return buf;
}

TraceRing::TraceRing(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

bool TraceRing::push(const TraceSpan& s) noexcept {
  const bool evicting = recorded_ >= slots_.size();
  slots_[next_] = s;
  next_ = (next_ + 1) % slots_.size();
  ++recorded_;
  return evicting;
}

std::size_t TraceRing::size() const noexcept {
  return recorded_ < slots_.size() ? static_cast<std::size_t>(recorded_)
                                   : slots_.size();
}

std::vector<TraceSpan> TraceRing::snapshot() const {
  std::vector<TraceSpan> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest span sits at the insertion cursor once the ring has wrapped.
  const std::size_t start = recorded_ < slots_.size() ? 0 : next_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(slots_[(start + i) % slots_.size()]);
  }
  return out;
}

}  // namespace backlog::service
