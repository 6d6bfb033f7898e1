// One-range owner query through VolumeManager::query_batch(), the service's
// only query verb, for tests that ask about one range at a time.
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "service/volume_manager.hpp"

namespace backlog::testing {

/// Submits a one-range query_batch() at the call, so it takes its place in
/// the tenant's FIFO there; the deferred future unwraps the single result
/// on get().
inline std::future<std::vector<core::BackrefEntry>> query_one(
    service::VolumeManager& vm, const std::string& tenant, core::BlockNo first,
    std::uint64_t count = 1, core::QueryOptions opts = {}) {
  auto batch = vm.query_batch(tenant, {{first, count, opts}});
  return std::async(std::launch::deferred,
                    [batch = std::move(batch)]() mutable {
                      return std::move(batch.get().front());
                    });
}

}  // namespace backlog::testing
